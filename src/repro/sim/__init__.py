"""Discrete-event simulation substrate.

A deterministic, generator-based simulation kernel in the style of simpy,
built from scratch because no third-party DES library is available in the
reproduction environment.  See :mod:`repro.sim.engine` for the core loop.
"""

from .engine import (
    EmptySchedule,
    Environment,
    Event,
    NORMAL,
    SimulationError,
    StopSimulation,
    Timeout,
    URGENT,
)
from .process import Interrupt, Process
from .resources import Request, Resource
from .rng import RandomStream, StreamRegistry, derive_seed
from .simtime import TIME_EPS_S, is_zero_duration, times_close, times_equal

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "Resource",
    "Request",
    "RandomStream",
    "StreamRegistry",
    "derive_seed",
    "TIME_EPS_S",
    "times_equal",
    "times_close",
    "is_zero_duration",
    "SimulationError",
    "EmptySchedule",
    "StopSimulation",
    "NORMAL",
    "URGENT",
]
