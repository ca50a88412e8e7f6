"""Parallel shard execution on worker processes.

:class:`ParallelShardedSystem` is the process-parallel sibling of
:class:`~repro.sharding.system.ShardedSystem`: the same
:class:`~repro.sharding.router.ShardPlan` / router / merge machinery, but
each shard's system lives inside a persistent *worker process* instead of
the caller's process. Worker ``w`` owns shards ``s`` with
``s % n_workers == w`` and builds them locally (own
:class:`~repro.device.DeviceContext`, arena and tree), so shard state never
crosses a process boundary — only routed sub-batches go down the pipe and
:class:`~repro.baselines.base.BatchOutcome` objects come back.

Determinism is by construction, not by luck:

* a shard's system evolves only through its own sub-batch sequence, which
  is independent of how shards are packed onto workers — so every counter,
  tree word and QoS sample per shard is identical for 1, 2 or 4 workers;
* the parent always reassembles outcomes **in shard order** before calling
  :func:`~repro.sharding.merge.merge_shard_outcomes`, so the merged outcome
  never depends on which worker answered first (the parent does not even
  select on readiness — it drains pipes in worker order after broadcasting
  all jobs).

Workers install the parent's :class:`~repro.config.ExecutionConfig` (its
single ``vectorize_slots`` switch) at startup, so ``REPRO_SLOW_PATH=1`` and
:func:`~repro.config.set_execution_config` apply fleet-wide. The default is
two workers; ``n_workers=0`` (or a failed process start) degrades to an
in-process :class:`ShardedSystem` with identical output — the serial
fallback for environments where ``fork`` is unavailable.
"""

from __future__ import annotations

import multiprocessing as mp
import traceback

import numpy as np

from ..config import execution_config, set_execution_config
from ..errors import ConfigError, SimulationError
from ..lincheck import SequentialReference
from ..workloads.requests import RequestBatch
from .merge import merge_shard_outcomes
from .router import ShardPlan, ShardRouter
from .system import ShardedSystem


def _worker_main(conn, spec: dict) -> None:
    """Worker loop: build the owned shard systems, then serve requests.

    Every reply is ``("ok", payload)`` or ``("error", traceback_text)`` —
    exceptions never kill the worker silently; the parent re-raises them.
    """
    try:
        set_execution_config(spec["execution"])
        from ..factory import make_system

        shards = {
            s: make_system(
                spec["system"], ks, vs, seed=spec["seed"] + s, **spec["make_kwargs"]
            )
            for s, ks, vs in spec["loads"]
        }
        conn.send(("ok", shards[min(shards)].name if shards else None))
    except BaseException:
        conn.send(("error", traceback.format_exc()))
        return
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            return
        try:
            kind = msg[0]
            if kind == "batch":
                _, jobs, engine = msg
                out = [(s, shards[s].process_batch(b, engine=engine)) for s, b in jobs]
                conn.send(("ok", out))
            elif kind == "items":
                out = [(s, *shards[s].tree.items()) for s in sorted(shards)]
                conn.send(("ok", out))
            elif kind == "validate":
                for s in sorted(shards):
                    shards[s].tree.validate()
                conn.send(("ok", None))
            elif kind == "close":
                conn.send(("ok", None))
                return
            else:
                conn.send(("error", f"unknown worker message {kind!r}"))
        except BaseException:
            conn.send(("error", traceback.format_exc()))


class ParallelShardedSystem:
    """N key-range shards of one system kind, one worker process per slice.

    Mirrors the :class:`~repro.sharding.system.ShardedSystem` surface
    (``process_batch`` / ``items`` / ``validate`` / ``reference``) so the
    harness and benchmarks can swap one for the other. Use as a context
    manager, or call :meth:`close` when done, to reap the workers.
    """

    def __init__(
        self,
        system: str,
        keys: np.ndarray,
        values: np.ndarray,
        n_shards: int,
        n_workers: int = 2,
        seed: int = 0,
        **make_kwargs,
    ) -> None:
        if n_workers < 0:
            raise ConfigError(f"n_workers must be >= 0, got {n_workers}")
        self.plan = ShardPlan.from_pool(keys, n_shards)
        self.router = ShardRouter(self.plan)
        self.name = f"{system}x{n_shards}"
        self.n_workers = min(n_workers, n_shards)
        self._local: ShardedSystem | None = None
        self._workers: list[tuple[object, object]] = []  # (Process, Connection)
        self._owned: list[list[int]] = []

        if self.n_workers == 0:
            self._build_local(system, keys, values, n_shards, seed, make_kwargs)
            return
        loads = list(self.plan.partition_pool(keys, values))
        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-posix platform
            ctx = mp.get_context()
        try:
            for w in range(self.n_workers):
                owned = list(range(w, n_shards, self.n_workers))
                spec = {
                    "system": system,
                    "seed": seed,
                    "execution": execution_config(),
                    "make_kwargs": make_kwargs,
                    "loads": [(s, *loads[s]) for s in owned],
                }
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main, args=(child_conn, spec), daemon=True
                )
                proc.start()
                child_conn.close()
                self._workers.append((proc, parent_conn))
                self._owned.append(owned)
            acks = [self._recv(conn) for _, conn in self._workers]
            if acks and acks[0]:  # worker 0 owns shard 0: its display name
                self.name = f"{acks[0]}x{n_shards}"
        except OSError:  # pragma: no cover - fork refused (sandbox/rlimit)
            self._reap()
            self.n_workers = 0
            self._build_local(system, keys, values, n_shards, seed, make_kwargs)

    def _build_local(self, system, keys, values, n_shards, seed, make_kwargs) -> None:
        """Serial fallback: same shards, caller's process, same output."""
        self._local = ShardedSystem.build(
            system, keys, values, n_shards, seed=seed, **make_kwargs
        )
        self.name = self._local.name

    # ------------------------------------------------------------------ #
    @property
    def n_shards(self) -> int:
        return self.plan.n_shards

    @staticmethod
    def _recv(conn):
        status, payload = conn.recv()
        if status != "ok":
            raise SimulationError(f"shard worker failed:\n{payload}")
        return payload

    # ------------------------------------------------------------------ #
    def process_batch(self, batch: RequestBatch, engine: str = "vector"):
        """Route, broadcast per-worker job lists, merge in shard order."""
        if self._local is not None:
            return self._local.process_batch(batch, engine=engine)
        routed = self.router.route(batch)
        pending = []
        for (_, conn), owned in zip(self._workers, self._owned):
            jobs = [(s, routed[s].batch) for s in owned if routed[s].n]
            if jobs:
                conn.send(("batch", jobs, engine))
                pending.append(conn)
        outcomes: list = [None] * self.n_shards
        for conn in pending:  # drain in worker order: no readiness races
            for s, outcome in self._recv(conn):
                outcomes[s] = outcome
        return merge_shard_outcomes(batch, routed, outcomes, self.name)

    # ------------------------------------------------------------------ #
    def _shard_items(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Every worker shard's (keys, values), in shard order."""
        per_shard: list = [None] * self.n_shards
        for _, conn in self._workers:
            conn.send(("items",))
        for _, conn in self._workers:
            for s, ks, vs in self._recv(conn):
                per_shard[s] = (ks, vs)
        return per_shard

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """All (key, value) pairs across shards, in global key order."""
        if self._local is not None:
            return self._local.items()
        ks, vs = zip(*self._shard_items())
        return np.concatenate(ks), np.concatenate(vs)

    def validate(self) -> None:
        """Every shard tree is valid and respects its fence bounds."""
        if self._local is not None:
            self._local.validate()
            return
        for _, conn in self._workers:
            conn.send(("validate",))
        for _, conn in self._workers:
            self._recv(conn)
        self.plan.check_fences([ks for ks, _ in self._shard_items()])

    def reference(self) -> SequentialReference:
        """Sequential reference seeded with the fleet's current contents."""
        keys, values = self.items()
        return SequentialReference(keys, values)

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut the workers down; safe to call more than once."""
        if not self._workers:
            return
        for _, conn in self._workers:
            try:
                conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass
        for proc, conn in self._workers:
            try:
                conn.recv()
            except (EOFError, OSError):
                pass
            conn.close()
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - wedged worker
                proc.terminate()
        self._workers = []

    def _reap(self) -> None:
        for proc, conn in self._workers:
            conn.close()
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5)
        self._workers = []

    def __enter__(self) -> "ParallelShardedSystem":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "serial-fallback" if self._local is not None else f"{self.n_workers}w"
        return f"ParallelShardedSystem({self.name}, shards={self.n_shards}, {mode})"
