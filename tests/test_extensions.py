"""Tests for the section-7 extension experiments (page coloring)."""

import pytest

from repro.common.rng import RngStream
from repro.experiments.extensions import (
    ColoringResult,
    page_coloring_study,
    page_coloring_sweep,
)
from repro.synthetic import layout as lay
from repro.synthetic.kernel import Kernel
from repro.synthetic.workloads import generate


class TestColoredAllocator:
    def make(self):
        return Kernel(2, RngStream(4, "color"), frame_policy="colored")

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            Kernel(2, RngStream(4, "x"), frame_policy="bogus")

    def test_color_honored_for_fresh_frames(self):
        k = self.make()
        for color in (0, 7, 63, 64):
            frame = k.alloc_frame(color=color)
            assert k.frame_color(frame) == color % Kernel.NUM_COLORS

    def test_free_frame_of_right_color_reused(self):
        k = self.make()
        frame = lay.FRAME_POOL + 5 * lay.PAGE  # color 5
        k.free_frames([frame])
        assert k.alloc_frame(color=5) == frame

    def test_free_frame_of_wrong_color_skipped(self):
        k = self.make()
        k.free_frames([lay.FRAME_POOL + 5 * lay.PAGE])
        got = k.alloc_frame(color=6)
        assert k.frame_color(got) == 6
        assert k._free_frames  # the color-5 frame is still free

    def test_same_color_requests_get_distinct_frames(self):
        k = self.make()
        frames = {k.alloc_frame(color=3) for _ in range(5)}
        assert len(frames) == 5
        assert all(k.frame_color(f) == 3 for f in frames)

    def test_default_policy_ignores_color_path(self):
        k = Kernel(2, RngStream(4, "x"))
        frame = k.alloc_frame()
        assert frame % lay.PAGE == 0


class TestColoredWorkloads:
    def test_colored_trace_validates(self):
        trace = generate("TRFD_4", seed=3, scale=0.06,
                         frame_policy="colored")
        trace.validate()
        assert trace.metadata["frame_policy"] == "colored"

    def test_colored_differs_from_default(self):
        default = generate("TRFD_4", seed=3, scale=0.06)
        colored = generate("TRFD_4", seed=3, scale=0.06,
                           frame_policy="colored")
        assert any(a != b for a, b in zip(default.records(),
                                          colored.records()))

    def test_copy_src_dst_colors_disjoint(self):
        trace = generate("TRFD_4", seed=3, scale=0.06,
                         frame_policy="colored")
        l1_sets = 32 * 1024 // lay.PAGE  # 8 page classes in the L1D
        for op in trace.blockops:
            if op.is_copy and op.size == lay.PAGE:
                assert (op.src // lay.PAGE) % l1_sets != \
                    (op.dst // lay.PAGE) % l1_sets


class TestStudy:
    def test_single_study_fields(self):
        result = page_coloring_study("TRFD_4", seed=5, scale=0.06)
        assert result.workload == "TRFD_4"
        assert result.default_misses > 0
        assert result.colored_misses > 0
        assert 0 < result.miss_ratio < 5
        assert 0 < result.time_ratio < 5

    def test_sweep_runs_each_workload(self):
        results = page_coloring_sweep(seed=5, scale=0.06,
                                      workloads=["Shell"])
        assert set(results) == {"Shell"}
        assert results["Shell"].workload == "Shell"

    def test_ratios_guard_zero(self):
        r = ColoringResult("x", 0, 0, 0, 0, 0, 0)
        assert r.miss_ratio == 0.0
        assert r.time_ratio == 0.0
