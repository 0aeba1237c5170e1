"""Shared fixtures: machines, memory systems, and small traces."""

from __future__ import annotations

import json
import os

import pytest

from repro.common.params import BASE_MACHINE, MachineParams
from repro.common.types import Mode
from repro.memsys.bus import Bus
from repro.memsys.coherence import CoherenceController
from repro.memsys.hierarchy import CpuMemorySystem
from repro.sim.metrics import SystemMetrics
from repro.trace import record as rec
from repro.trace.stream import TraceBuilder


@pytest.fixture
def machine() -> MachineParams:
    return BASE_MACHINE


class MemoryRig:
    """A bus + controller + N per-CPU hierarchies, wired for unit tests."""

    def __init__(self, machine: MachineParams, num_cpus: int = 2) -> None:
        self.machine = machine
        self.bus = Bus(machine.bus)
        self.controller = CoherenceController(machine, self.bus)
        self.metrics = SystemMetrics(num_cpus, machine.page_bytes)
        self.mems = [
            CpuMemorySystem(machine, self.bus, self.controller, self.metrics)
            for _ in range(num_cpus)
        ]
        self.trackers = [mem.tracker for mem in self.mems]

    def __getitem__(self, cpu: int) -> CpuMemorySystem:
        return self.mems[cpu]

    def read(self, cpu: int, addr: int, t: int, mode: int = Mode.USER,
             pc: int = 0, dclass: int = 0, blockop: int = 0,
             inside: bool = False, bypass: bool = False):
        """A data read by *cpu* through the one read routine,
        :meth:`CpuMemorySystem.load`, with its :class:`AccessResult`;
        *bypass* makes it a Blk_Bypass block-op source read."""
        return self.mems[cpu].load(addr, t, mode, pc, dclass, blockop,
                                   inside, bypass, True)


@pytest.fixture
def rig(machine: MachineParams) -> MemoryRig:
    """Two-CPU memory rig on the Base machine."""
    return MemoryRig(machine, num_cpus=2)


@pytest.fixture
def quad_rig(machine: MachineParams) -> MemoryRig:
    """Four-CPU memory rig on the Base machine."""
    return MemoryRig(machine, num_cpus=4)


@pytest.fixture
def builder() -> TraceBuilder:
    """Empty four-CPU trace builder."""
    return TraceBuilder(4)


@pytest.fixture(params=["unknown-blockop", "unreleased-lock",
                        "oversized-barrier"])
def broken_trace(request):
    """A 2-CPU trace that loads but breaks a structural rule, and the
    message :meth:`Trace.validate` gives for it."""
    b = TraceBuilder(2)
    if request.param == "unknown-blockop":
        b.emit(0, rec.block_start(99))
        b.emit(0, rec.block_end(99))
        message = "unknown block op id 99"
    elif request.param == "unreleased-lock":
        b.emit(0, rec.lock_acquire(0x40))
        message = "cpu 0: locks never released: ['0x40']"
    else:
        b.emit(0, rec.barrier(0x80, 3))
        b.emit(1, rec.barrier(0x80, 3))
        message = "barrier 0x80: bad participant count 3"
    b.emit(1, rec.read(0x100))
    return b.build(validate=False), message


def _drop_stored_metrics(root) -> int:
    """Delete every simulation result stored under the artifact cache at
    *root* (with its hash sidecar); returns how many were deleted."""
    dropped = 0
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            if not name.endswith(".json"):
                continue
            path = os.path.join(dirpath, name)
            with open(path) as fp:
                if json.load(fp).get("stage") != "metrics":
                    continue
            for victim in (path, path + ".sha256"):
                if os.path.exists(victim):
                    os.unlink(victim)
            dropped += 1
    return dropped


@pytest.fixture
def drop_stored_metrics():
    """Make a warm artifact cache partly warm: its stored simulation
    results go, its traces and derived artifacts stay, so the next sweep
    on it reads them and simulates instead of serving its cells."""
    return _drop_stored_metrics
