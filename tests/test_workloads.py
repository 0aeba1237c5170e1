"""Tests for the four workload generators (repro.synthetic.workloads)."""

import numpy as np
import pytest

from repro.common.types import BlockOpKind, Mode, Op
from repro.synthetic.workloads import WORKLOAD_ORDER, WORKLOADS, generate

TINY = 0.1


def op_count(trace, op, mode=None):
    """Records of *op* (in *mode*, when given) across every CPU."""
    total = 0
    for cols in trace.columns:
        hit = cols.ops == op
        if mode is not None:
            hit &= cols.modes == mode
        total += int(np.count_nonzero(hit))
    return total


@pytest.fixture(scope="module")
def traces():
    return {name: generate(name, seed=7, scale=TINY) for name in WORKLOAD_ORDER}


def test_workload_order_matches_paper():
    assert WORKLOAD_ORDER == ["TRFD_4", "TRFD+Make", "ARC2D+Fsck", "Shell"]
    assert set(WORKLOADS) == set(WORKLOAD_ORDER)


def test_unknown_workload_rejected():
    with pytest.raises(KeyError, match="unknown workload"):
        generate("bogus")


def test_traces_validate(traces):
    for trace in traces.values():
        trace.validate()


def test_traces_have_four_cpus(traces):
    for trace in traces.values():
        assert trace.num_cpus == 4
        assert all(cols for cols in trace.columns)


def test_metadata_recorded(traces):
    for name, trace in traces.items():
        assert trace.metadata["workload"] == name
        assert trace.metadata["seed"] == 7
        assert trace.metadata["scale"] == TINY


def test_determinism():
    a = generate("Shell", seed=3, scale=TINY)
    b = generate("Shell", seed=3, scale=TINY)
    for sa, sb in zip(a.columns, b.columns):
        assert sa == sb


def test_seed_changes_trace():
    a = generate("Shell", seed=3, scale=TINY)
    b = generate("Shell", seed=4, scale=TINY)
    assert any(sa != sb for sa, sb in zip(a.columns, b.columns))


def test_scale_grows_trace():
    small = generate("TRFD_4", seed=3, scale=TINY)
    large = generate("TRFD_4", seed=3, scale=2 * TINY)
    assert len(large) > len(small)


def test_all_have_user_and_os_references(traces):
    for name, trace in traces.items():
        for mode in (Mode.USER, Mode.OS):
            assert (op_count(trace, Op.READ, mode)
                    + op_count(trace, Op.WRITE, mode)) > 0, (name, mode)


def test_all_have_block_operations(traces):
    for name, trace in traces.items():
        assert len(trace.blockops) > 0, name


def test_parallel_workloads_have_barriers(traces):
    for name in ("TRFD_4", "TRFD+Make", "ARC2D+Fsck"):
        assert op_count(traces[name], Op.BARRIER) > 0, name


def test_shell_has_no_barriers(traces):
    # Shell's jobs are all serial (Table 5: barrier misses ~0).
    assert op_count(traces["Shell"], Op.BARRIER) == 0


def test_all_have_locks(traces):
    for name, trace in traces.items():
        acquires = op_count(trace, Op.LOCK_ACQ)
        assert acquires > 0, name
        assert acquires == op_count(trace, Op.LOCK_REL), name


def test_shell_block_sizes_skew_small(traces):
    shell = [op.size for op in traces["Shell"].blockops]
    trfd = [op.size for op in traces["TRFD_4"].blockops]
    small_shell = sum(1 for s in shell if s < 1024) / len(shell)
    small_trfd = sum(1 for s in trfd if s < 1024) / len(trfd)
    assert small_shell > small_trfd


def test_trfd_blocks_mostly_page_sized(traces):
    sizes = [op.size for op in traces["TRFD_4"].blockops]
    assert sum(1 for s in sizes if s == 4096) / len(sizes) > 0.5


def test_workloads_include_zero_and_copy_ops(traces):
    for name, trace in traces.items():
        kinds = {op.kind for op in trace.blockops}
        assert BlockOpKind.COPY in kinds, name


def test_shell_has_idle_time(traces):
    idle = sum(1 for r in traces["Shell"].records() if r.mode == Mode.IDLE)
    assert idle > 0
