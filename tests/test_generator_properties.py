"""Property-based tests for the seeded workload sweep generator.

The contract under test (repro.synthetic.generator): a generated
workload's name fully determines its profile and trace — same spec +
seed yields bit-identical traces (through npzio, byte for byte),
different seeds diverge, and every generated trace is well-formed and
round-trips exactly through both trace serializers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ProfileError
from repro.synthetic import generator
from repro.synthetic.generator import (SWEEP_FAMILIES, GeneratedWorkload,
                                       SweepSpec, from_name, point_name,
                                       sample)
from repro.synthetic.profiles import PATTERNS, generate
from repro.trace import npzio, textio

SCALE = 0.03

points = st.tuples(
    st.sampled_from(SWEEP_FAMILIES),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([0.25, 0.4, 0.6, 0.8, 1.0]),
    st.sampled_from(PATTERNS),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=3),
)


def workload_at(point) -> GeneratedWorkload:
    return from_name(point_name(*point))


def _blockop_keys(trace):
    return [(op.op_id, op.kind, op.src, op.dst, op.size, op.pc)
            for op in trace.blockops]


# ======================================================================
# Determinism and divergence
# ======================================================================
@given(points)
@settings(max_examples=12, deadline=None)
def test_same_spec_and_seed_bit_identical(point):
    a = workload_at(point).generate(scale=SCALE)
    b = workload_at(point).generate(scale=SCALE)
    for sa, sb in zip(a.columns, b.columns):
        assert sa == sb
    assert a.metadata == b.metadata
    assert _blockop_keys(a) == _blockop_keys(b)


@given(points)
@settings(max_examples=8, deadline=None)
def test_different_seeds_diverge(point):
    family, cpus, level, pattern, seed, index = point
    a = workload_at(point).generate(scale=SCALE)
    b = workload_at((family, cpus, level, pattern, seed + 1,
                     index)).generate(scale=SCALE)
    assert any(sa != sb for sa, sb in zip(a.columns, b.columns))


def test_npz_bytes_identical_across_generations(tmp_path):
    """The acceptance criterion verbatim: same profile spec + seed means
    identical trace *bytes* through npzio."""
    name = point_name("server", 4, 0.6, "bursty", 7, 1)
    for i in (0, 1):
        npzio.save(from_name(name).generate(scale=0.05),
                   str(tmp_path / f"{i}.npz"))
    assert ((tmp_path / "0.npz").read_bytes()
            == (tmp_path / "1.npz").read_bytes())


def test_generate_by_name_matches_workload_object():
    """profiles.generate('gen:...') must agree with the workload's own
    generate() — the property worker processes rely on."""
    workload = sample(3, seed=5)[2]
    direct = workload.generate(scale=SCALE)
    by_name = generate(workload.name, seed=workload.seed, scale=SCALE)
    for sa, sb in zip(direct.columns, by_name.columns):
        assert sa == sb


# ======================================================================
# Well-formedness
# ======================================================================
@given(points)
@settings(max_examples=10, deadline=None)
def test_generated_traces_well_formed(point):
    workload = workload_at(point)
    trace = workload.generate(scale=SCALE)
    trace.validate()  # seals, lock/barrier balance, block-op brackets
    assert trace.num_cpus == workload.profile.num_cpus == point[1]
    assert all(cols for cols in trace.columns)
    assert trace.metadata["workload"] == workload.name


@given(point=points)
@settings(max_examples=10, deadline=None)
def test_exact_round_trip_textio_and_npzio(tmp_path_factory, point):
    trace = workload_at(point).generate(scale=SCALE)
    tmp = tmp_path_factory.mktemp("rt")
    path = tmp / "t.npz"
    npzio.save(trace, str(path))
    reloaded = npzio.load(str(path))
    for sa, sb in zip(trace.columns, reloaded.columns):
        assert sa == sb
    assert reloaded.metadata == trace.metadata
    text_path = tmp / "t.txt"
    with open(text_path, "w") as fp:
        textio.dump(trace, fp)
    with open(text_path) as fp:
        from_text = textio.load(fp)
    for sa, sb in zip(trace.columns, from_text.columns):
        assert sa == sb
    assert from_text.metadata == trace.metadata


# ======================================================================
# Names
# ======================================================================
@given(points)
@settings(max_examples=20, deadline=None)
def test_names_round_trip(point):
    name = point_name(*point)
    workload = from_name(name)
    assert workload.name == name
    assert from_name(name).profile == workload.profile
    assert from_name(name).seed == workload.seed


@pytest.mark.parametrize("bad", [
    "server",
    "gen:server",
    "gen:server:c4:i060:steady:0",
    "gen:server:c4:i060:steady:0:0:extra",
    "gen:nosuchfamily:c4:i060:steady:0:0",
    "gen:server:x4:i060:steady:0:0",
    "gen:server:c4:i060:lunar:0:0",
    "gen:server:c4:i060:steady:zero:0",
    "gen:TRFD_4:c4:i060:steady:0:0",
])
def test_malformed_names_rejected(bad):
    with pytest.raises(ProfileError):
        from_name(bad)


# ======================================================================
# Sweeps and sampling
# ======================================================================
def test_sweep_grid_shape():
    workloads = sample(2 * 2 * 2 * 2 * 3, seed=1,
                       families=("server", "bursty_mp"), num_cpus=(2, 4),
                       intensities=(0.6, 1.0), patterns=("steady", "bursty"))
    assert len({w.name for w in workloads}) == len(workloads)
    assert {w.name.split(":")[-1] for w in workloads} == {"0", "1", "2"}


def test_sweep_spec_validates():
    with pytest.raises(ProfileError, match="family"):
        SweepSpec(families=("Shell",)).validate()
    with pytest.raises(ProfileError, match="pattern"):
        SweepSpec(patterns=("lunar",)).validate()
    with pytest.raises(ProfileError, match="num_cpus"):
        SweepSpec(num_cpus=(0,)).validate()
    with pytest.raises(ProfileError, match="intensity"):
        SweepSpec(intensities=(0.0,)).validate()


def test_sample_is_deterministic_and_coverage_first():
    a = sample(20, seed=0)
    b = sample(20, seed=0)
    assert [w.name for w in a] == [w.name for w in b]
    assert len({w.name for w in a}) == 20
    grid = len(SweepSpec().points())
    first = a[:grid]
    assert len({(w.profile.family, w.profile.num_cpus,
                 w.profile.pattern, w.name.split(":")[3])
                for w in first}) == min(grid, 20)


def test_sample_jitters_profiles():
    a, b = sample(1, seed=0)[0], sample(1, seed=1)[0]
    assert a.profile != b.profile  # jitter drew different parameters
    assert a.seed != b.seed
