"""Simulated GPU global memory: a word arena with a bump allocator."""

from .arena import MemoryArena

__all__ = ["MemoryArena"]
