"""Deterministic fault injection for crash testing the durability layer.

Durability code is only trustworthy if every crash window it claims to
survive is actually exercised.  This module plants named *fault points*
at the interesting instants of the write-ahead-log and checkpoint paths
(just before a record is framed, between write and fsync, between the
temp-file fsync and the rename, after the rename) and lets a test *arm*
one of them: the next time execution reaches the armed point, a
:class:`SimulatedCrash` is raised, modeling the process dying right
there.

The registry is the test surface: the crash matrix in
``tests/test_crash_matrix.py`` iterates :data:`FAULT_POINTS` so that a
newly planted point is automatically covered (and a typo in a
``fault_point()`` call site fails loudly instead of silently never
firing).

The injector is process-global and disarmed by default; production code
pays one dict lookup per fault point.  Tests use::

    with get_injector().armed("wal.pre_fsync"):
        session.insert(batch)          # raises SimulatedCrash
"""

from __future__ import annotations

from contextlib import contextmanager

#: Every plantable crash instant.  ``wal.*`` fire inside
#: :meth:`~repro.durability.wal.WriteAheadLog.append`; ``checkpoint.*``
#: fire inside the checkpoint store's atomic write; ``state_save.*``
#: fire inside :func:`repro.core.state_io.save_state`.
FAULT_POINTS = frozenset(
    {
        # WAL append path, in execution order.
        "wal.append",        # before any record bytes are written
        "wal.pre_fsync",     # record written to the OS, not yet fsync'd
        "wal.post_fsync",    # record durable, not yet applied in memory
        # Atomic checkpoint write, in execution order.
        "checkpoint.pre_fsync",    # temp file written, not yet fsync'd
        "checkpoint.pre_rename",   # temp durable, final name not swapped
        "checkpoint.post_rename",  # checkpoint live, WAL not yet reset
        # Atomic plain state save (the non-session ``save_state`` path).
        "state_save.pre_fsync",
        "state_save.pre_rename",
        "state_save.post_rename",
        # Evidence pool worker, right before it runs its stripe (fires
        # in the forked child, never the parent).
        "executor.shard",
    }
)


class SimulatedCrash(RuntimeError):
    """Raised at an armed fault point, modeling the process dying there.

    Carries the point name so harnesses can assert *where* they died.
    """

    def __init__(self, point: str):
        super().__init__(f"simulated crash at fault point {point!r}")
        self.point = point


class FaultInjector:
    """Arms fault points and raises when execution reaches one.

    :meth:`hit` is the production-side call; it is a no-op unless the
    point is armed.  ``skip`` arms the *(skip+1)*-th hit, which lets a
    test crash on e.g. the third WAL append of a workload.
    """

    def __init__(self):
        self._armed = {}
        self.crash_count = 0

    def arm(self, point: str, skip: int = 0) -> None:
        if point not in FAULT_POINTS:
            raise ValueError(f"unknown fault point {point!r}")
        self._armed[point] = skip

    def disarm(self, point: str) -> None:
        self._armed.pop(point, None)

    def reset(self) -> None:
        """Disarm everything (test teardown)."""
        self._armed.clear()
        self.crash_count = 0

    def hit(self, point: str) -> None:
        """Called by durability code at a registered fault point."""
        if point not in self._armed:
            return
        if self._armed[point] > 0:
            self._armed[point] -= 1
            return
        del self._armed[point]
        self.crash_count += 1
        raise SimulatedCrash(point)

    @contextmanager
    def armed(self, point: str, skip: int = 0):
        """Arm ``point`` for the duration of a ``with`` block."""
        self.arm(point, skip=skip)
        try:
            yield self
        finally:
            self.disarm(point)


_INJECTOR = FaultInjector()


def get_injector() -> FaultInjector:
    """The process-global injector (tests arm it, teardown resets it)."""
    return _INJECTOR


def fault_point(name: str) -> None:
    """Production-side hook: crash here iff a test armed this point."""
    if name not in FAULT_POINTS:
        raise ValueError(f"unregistered fault point {name!r}")
    _INJECTOR.hit(name)
