"""Software transactional memory (Holey & Zhai-style eager GPU STM)."""

from .device import DeviceStm
from .stats import StmStats
from .tm import FREE, StmRegion, Tx

__all__ = ["FREE", "DeviceStm", "StmRegion", "StmStats", "Tx"]
