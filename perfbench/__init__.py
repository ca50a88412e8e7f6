"""Repository benchmark: host speed, modeled throughput/QoS and correctness
of the Eirene system on fixed workloads. Run ``python3 perfbench/run.py``."""
