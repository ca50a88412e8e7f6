"""Transaction statistics.

The paper reports conflicts per request (Eirene ≈ 4.8% of STM GB-tree) and
attributes response-time variance to unpredictable retry counts; these
counters are the source for both.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class StmStats:
    begins: int = 0
    commits: int = 0
    aborts: int = 0
    #: conflicts by cause: write-write acquire failure, read of an owned
    #: word, commit-time read validation failure, leaf version mismatch
    conflicts_ww: int = 0
    conflicts_rw: int = 0
    conflicts_validation: int = 0
    conflicts_version: int = 0

    @property
    def conflicts(self) -> int:
        return (
            self.conflicts_ww
            + self.conflicts_rw
            + self.conflicts_validation
            + self.conflicts_version
        )

    def reset(self) -> None:
        self.begins = 0
        self.commits = 0
        self.aborts = 0
        self.conflicts_ww = 0
        self.conflicts_rw = 0
        self.conflicts_validation = 0
        self.conflicts_version = 0

    def snapshot(self) -> "StmStats":
        return StmStats(
            begins=self.begins,
            commits=self.commits,
            aborts=self.aborts,
            conflicts_ww=self.conflicts_ww,
            conflicts_rw=self.conflicts_rw,
            conflicts_validation=self.conflicts_validation,
            conflicts_version=self.conflicts_version,
        )

    def delta_since(self, earlier: "StmStats") -> "StmStats":
        return StmStats(
            begins=self.begins - earlier.begins,
            commits=self.commits - earlier.commits,
            aborts=self.aborts - earlier.aborts,
            conflicts_ww=self.conflicts_ww - earlier.conflicts_ww,
            conflicts_rw=self.conflicts_rw - earlier.conflicts_rw,
            conflicts_validation=self.conflicts_validation - earlier.conflicts_validation,
            conflicts_version=self.conflicts_version - earlier.conflicts_version,
        )
