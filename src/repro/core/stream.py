"""Host-side request buffering (§7): the service front-end.

The real system accepts individual key-value requests, buffers them in host
memory, and ships a batch to the GPU once a configurable threshold (1M in
the paper) is reached. :class:`EireneService` reproduces that interface:
``submit_*`` calls enqueue a request and return a :class:`Ticket`; a batch
is processed automatically when the buffer reaches the service's
``batch_threshold`` (or explicitly via :meth:`flush`), after which every
ticket of that batch is resolved.

Tickets expose the request's linearization-consistent result — queries get
the value at their logical timestamp, update-class requests get the value
they replaced, range queries get their (keys, values) snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._types import KIND_DTYPE, NULL_VALUE, OpKind
from ..baselines.base import BatchOutcome, System
from ..errors import WorkloadError
from ..workloads.requests import RequestBatch, check_key_range

#: §7 CPU-side buffering threshold (requests per batch) — scaled from the
#: paper's 1M default
DEFAULT_BATCH_THRESHOLD = 8192


@dataclass
class Ticket:
    """Handle for one submitted request; resolved when its batch completes."""

    kind: OpKind
    key: int
    _resolved: bool = False
    _value: int = NULL_VALUE
    _range: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def done(self) -> bool:
        return self._resolved

    def value(self) -> int:
        """Point-request result; raises until the batch was processed."""
        if not self._resolved:
            raise WorkloadError("request not processed yet; call flush()")
        if self.kind == OpKind.RANGE:
            raise WorkloadError("range tickets resolve via .range_items()")
        return self._value

    def range_items(self) -> tuple[np.ndarray, np.ndarray]:
        if not self._resolved:
            raise WorkloadError("request not processed yet; call flush()")
        if self.kind != OpKind.RANGE:
            raise WorkloadError("not a range request")
        assert self._range is not None
        return self._range


@dataclass
class _Pending:
    kinds: list[int] = field(default_factory=list)
    keys: list[int] = field(default_factory=list)
    values: list[int] = field(default_factory=list)
    ends: list[int] = field(default_factory=list)
    tickets: list[Ticket] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.kinds)


class EireneService:
    """Buffered request front-end over any :class:`~repro.baselines.base.System`.

    Works with Eirene (linearizable results) or a baseline (for
    comparisons).
    """

    def __init__(self, system: System,
                 batch_threshold: int = DEFAULT_BATCH_THRESHOLD,
                 engine: str = "vector") -> None:
        self.system = system
        self.batch_threshold = batch_threshold
        if self.batch_threshold < 1:
            raise WorkloadError("batch_threshold must be >= 1")
        self.engine = engine
        self._pending = _Pending()
        self.batches_processed = 0
        self.requests_processed = 0
        self.outcomes: list[BatchOutcome] = []

    # ------------------------------------------------------------------ #
    def submit_query(self, key: int) -> Ticket:
        return self._enqueue(OpKind.QUERY, key, 0, 0)

    def submit_update(self, key: int, value: int) -> Ticket:
        return self._enqueue(OpKind.UPDATE, key, value, 0)

    def submit_insert(self, key: int, value: int) -> Ticket:
        return self._enqueue(OpKind.INSERT, key, value, 0)

    def submit_delete(self, key: int) -> Ticket:
        return self._enqueue(OpKind.DELETE, key, 0, 0)

    def submit_range(self, lo: int, hi: int) -> Ticket:
        if hi < lo:
            raise WorkloadError(f"empty range [{lo}, {hi}]")
        return self._enqueue(OpKind.RANGE, lo, 0, hi)

    @property
    def pending(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------ #
    def _enqueue(self, kind: OpKind, key: int, value: int, end: int) -> Ticket:
        # rejected before buffering: a bad key must not fail the whole batch
        # at flush time
        check_key_range([key])
        ticket = Ticket(kind=kind, key=key)
        p = self._pending
        p.kinds.append(int(kind))
        p.keys.append(key)
        p.values.append(value)
        p.ends.append(end)
        p.tickets.append(ticket)
        if len(p) >= self.batch_threshold:
            self.flush()
        return ticket

    def flush(self) -> BatchOutcome | None:
        """Process the buffered batch now; resolves its tickets."""
        p = self._pending
        if not len(p):
            return None
        batch = RequestBatch(
            kinds=np.array(p.kinds, dtype=KIND_DTYPE),
            keys=np.array(p.keys, dtype=np.int64),
            values=np.array(p.values, dtype=np.int64),
            range_ends=np.array(p.ends, dtype=np.int64),
        )
        self._pending = _Pending()
        outcome = self.system.process_batch(batch, engine=self.engine)
        for i, ticket in enumerate(p.tickets):
            ticket._resolved = True
            if ticket.kind == OpKind.RANGE:
                ks, vs = outcome.results.range_result(i)
                ticket._range = (ks.copy(), vs.copy())
            else:
                ticket._value = int(outcome.results.values[i])
        self.batches_processed += 1
        self.requests_processed += batch.n
        self.outcomes.append(outcome)
        return outcome
