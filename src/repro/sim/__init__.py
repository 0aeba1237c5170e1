"""Execution model: configurations, processors, metrics, the system loop."""

from repro.sim.config import (SystemConfig, all_configs, hybrid_configs,
                              standard_configs)
from repro.sim.metrics import BlockOpStats, SystemMetrics, TimeBreakdown
from repro.sim.processor import ProcStatus, Processor, StepResult
from repro.sim.sync import BarrierManager, LockTable
from repro.sim.system import MultiprocessorSystem, simulate

__all__ = [
    "BarrierManager",
    "BlockOpStats",
    "LockTable",
    "MultiprocessorSystem",
    "ProcStatus",
    "Processor",
    "StepResult",
    "SystemConfig",
    "SystemMetrics",
    "TimeBreakdown",
    "all_configs",
    "hybrid_configs",
    "simulate",
    "standard_configs",
]
