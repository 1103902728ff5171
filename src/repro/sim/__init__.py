"""Deterministic discrete-event simulation kernel.

This package provides the substrate every simulated component in the
reproduction runs on: a nanosecond-resolution event loop (:mod:`engine`),
generator-coroutine processes, and simulated-time synchronisation
primitives (:mod:`sync`).

The design is intentionally SimPy-like but self-contained (no external
dependency) and fully deterministic: events scheduled for the same
timestamp fire in schedule order, so a given seed always produces an
identical trace.
"""

from repro.sim.engine import (
    Engine,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
    WaitTimeout,
)
from repro.sim.queues import DEFAULT_SCHEDULER, TimingWheelQueue
from repro.sim.sync import (
    Barrier,
    Channel,
    Gate,
    Lock,
    RWLock,
    Semaphore,
    Store,
)

__all__ = [
    "Barrier",
    "Channel",
    "DEFAULT_SCHEDULER",
    "Engine",
    "Event",
    "Gate",
    "Interrupt",
    "Lock",
    "Process",
    "RWLock",
    "Semaphore",
    "SimulationError",
    "Store",
    "TimingWheelQueue",
    "Timeout",
    "WaitTimeout",
]
