"""Tests for the declarative workload-profile layer (repro.synthetic.profiles)."""

import dataclasses
import json

import pytest

from repro.common.errors import ProfileError
from repro.synthetic import workloads
from repro.synthetic.profiles import (BUILTIN_PROFILES, MIN_LEVEL, PATTERNS,
                                      PROFILE_ORDER, WorkloadProfile,
                                      available_profiles, compile_profile,
                                      generate, get_profile, intensity,
                                      load_profile, profile_from_dict,
                                      register_profile, save_profile)
from repro.trace import npzio

TINY = 0.05


# ======================================================================
# Paper workloads as profiles: bit-compatibility
# ======================================================================
@pytest.mark.parametrize("name", workloads.WORKLOAD_ORDER)
def test_paper_profiles_bit_identical(name, tmp_path):
    """The four paper profiles must delegate, not approximate: their
    traces are bit-identical to repro.synthetic.workloads.generate for
    the default seed."""
    legacy = workloads.generate(name, seed=1996, scale=TINY)
    via_profile = generate(name, seed=1996, scale=TINY)
    assert len(via_profile) == len(legacy)
    for sa, sb in zip(via_profile.columns, legacy.columns):
        assert sa == sb
    assert via_profile.metadata == legacy.metadata
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    npzio.save(legacy, str(a))
    npzio.save(via_profile, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_paper_profiles_thread_frame_policy():
    colored = generate("Shell", seed=5, scale=TINY, frame_policy="colored")
    plain = generate("Shell", seed=5, scale=TINY)
    assert colored.metadata["frame_policy"] == "colored"
    assert any(sa != sb for sa, sb in zip(colored.columns, plain.columns))


# ======================================================================
# Registry
# ======================================================================
def test_profile_order_and_registry():
    assert PROFILE_ORDER[:4] == workloads.WORKLOAD_ORDER
    assert {"server", "bursty_mp", "gang_diurnal"} <= set(PROFILE_ORDER)
    assert set(PROFILE_ORDER) <= set(BUILTIN_PROFILES)
    assert available_profiles()[:len(PROFILE_ORDER)] == PROFILE_ORDER


def test_unknown_profile_lists_available():
    with pytest.raises(KeyError, match="server"):
        get_profile("bogus")
    with pytest.raises(KeyError, match="unknown workload profile"):
        generate("bogus", scale=TINY)


def test_register_profile_and_shadowing():
    profile = WorkloadProfile(name="test-custom-xyz", rounds=8)
    register_profile(profile)
    assert get_profile("test-custom-xyz") is profile
    assert "test-custom-xyz" in available_profiles()
    with pytest.raises(ProfileError, match="shadow"):
        register_profile(WorkloadProfile(name="server"))


def test_generate_accepts_profile_object():
    profile = WorkloadProfile(name="inline", rounds=6, app="fsck")
    trace = generate(profile, seed=2, scale=1.0)
    trace.validate()
    assert trace.metadata["workload"] == "inline"


# ======================================================================
# Validation
# ======================================================================
@pytest.mark.parametrize("changes,match", [
    ({"pattern": "lunar"}, "pattern"),
    ({"app": "emacs"}, "app"),
    ({"num_cpus": 0}, "num_cpus"),
    ({"num_cpus": 64}, "num_cpus"),
    ({"rounds": 0}, "rounds"),
    ({"syscall_prob": 1.5}, "syscall_prob"),
    ({"fork_prob": -0.1}, "fork_prob"),
    ({"barrier_phases": 9}, "barrier_phases"),
    ({"io_sizes": (64,)}, "io_sizes"),
    ({"io_weights": (0.5, -1.0, 0.5, 0.4, 0.3, 0.2)}, "io_sizes"),
    ({"idle_spins": (10, 4)}, "idle_spins"),
    ({"fault_target": 0}, "fault_target"),
    ({"legacy": "NotAPaperWorkload"}, "legacy"),
])
def test_validation_rejects(changes, match):
    base = WorkloadProfile(name="v")
    with pytest.raises(ProfileError, match=match):
        base.replaced(**changes)


@pytest.mark.parametrize("field,value,match", [
    ("rounds", "x", "rounds: 'x' is not an integer"),
    ("rounds", 24.5, "rounds: 24.5 is not an integer"),
    ("num_cpus", True, "num_cpus: True is not an integer"),
    ("syscall_prob", "a", "syscall_prob: 'a' is not a number"),
    ("kmem_jump_prob", None, "kmem_jump_prob: None is not a number"),
    ("app", [], "app: \\[\\] is not a string"),
    ("legacy", {}, "legacy"),
    ("io_sizes", ["64"] * 6, "io_sizes: .* is not a list of integers"),
    ("io_weights", [None] * 6, "io_weights: .* is not a list of numbers"),
    ("idle_spins", [1], "idle_spins: .* is not a \\(lo, hi\\) pair"),
    ("idle_spins", [1.5, 4], "idle_spins"),
])
def test_from_dict_type_checks_fields(field, value, match):
    """Wrongly typed spec values raise ProfileError naming the field —
    never a bare TypeError, and a float round count is not truncated."""
    with pytest.raises(ProfileError, match=match):
        profile_from_dict({"name": "bad", "family": "server", field: value})


def test_type_checks_cover_every_scalar_field():
    from repro.synthetic import profiles
    checked = (set(profiles._STR_FIELDS) | set(profiles._INT_FIELDS)
               | set(profiles._REAL_FIELDS) | set(profiles._INT_TUPLE_FIELDS)
               | set(profiles._REAL_TUPLE_FIELDS))
    assert checked == {f.name for f in dataclasses.fields(WorkloadProfile)}


def test_validation_names_offending_profile():
    with pytest.raises(ProfileError, match="'v'"):
        WorkloadProfile(name="v", rounds=0).validate()


# ======================================================================
# Spec round-trips
# ======================================================================
def test_dict_round_trip():
    profile = BUILTIN_PROFILES["server"]
    assert profile_from_dict(profile.to_dict()) == profile


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ProfileError, match="quantum_prob"):
        profile_from_dict({"name": "x", "quantum_prob": 0.5})
    with pytest.raises(ProfileError, match="name"):
        profile_from_dict({"rounds": 4})
    with pytest.raises(ProfileError, match="mapping"):
        profile_from_dict(["not", "a", "dict"])


def test_json_spec_file_round_trip(tmp_path):
    path = tmp_path / "spec.json"
    original = BUILTIN_PROFILES["bursty_mp"]
    save_profile(original, str(path))
    assert load_profile(str(path)) == original


def test_partial_json_spec_uses_defaults(tmp_path):
    path = tmp_path / "mini.json"
    path.write_text(json.dumps({"name": "mini", "app": "cc1"}))
    profile = load_profile(str(path))
    assert profile.app == "cc1"
    assert profile.rounds == WorkloadProfile(name="d").rounds


def test_bad_json_spec_reports_path(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ProfileError, match="broken.json"):
        load_profile(str(path))


def test_yaml_spec_round_trip(tmp_path):
    yaml = pytest.importorskip("yaml")
    del yaml
    path = tmp_path / "spec.yaml"
    original = BUILTIN_PROFILES["gang_diurnal"]
    save_profile(original, str(path))
    assert load_profile(str(path)) == original


# ======================================================================
# Intensity patterns
# ======================================================================
def test_intensity_steady_is_flat():
    assert all(intensity("steady", r, 48) == 1.0 for r in range(48))


def test_intensity_bursty_alternates():
    levels = [intensity("bursty", r, 32) for r in range(32)]
    assert levels[:4] == [1.0] * 4
    assert levels[4:8] == [MIN_LEVEL] * 4
    assert levels[8:12] == [1.0] * 4


def test_intensity_diurnal_waves():
    levels = [intensity("diurnal", r, 48) for r in range(48)]
    assert all(MIN_LEVEL <= lvl <= 1.0 for lvl in levels)
    assert min(levels) == levels[0] == pytest.approx(MIN_LEVEL)
    assert max(levels) == pytest.approx(1.0)


def test_intensity_rejects_unknown_pattern():
    with pytest.raises(ProfileError, match="lunar"):
        intensity("lunar", 0, 48)


# ======================================================================
# The new built-in families
# ======================================================================
@pytest.fixture(scope="module")
def family_traces():
    return {name: generate(name, seed=3, scale=0.1)
            for name in ("server", "bursty_mp", "gang_diurnal")}


def test_new_families_compile_and_validate(family_traces):
    for name, trace in family_traces.items():
        trace.validate()
        assert trace.num_cpus == 4
        assert all(cols for cols in trace.columns)
        assert len(trace.blockops) > 0, name


def test_new_family_metadata(family_traces):
    for name, trace in family_traces.items():
        assert trace.metadata["workload"] == name
        assert trace.metadata["family"] == BUILTIN_PROFILES[name].family
        assert trace.metadata["pattern"] == BUILTIN_PROFILES[name].pattern
        assert trace.metadata["profile"] == BUILTIN_PROFILES[name].to_dict()


def test_gang_family_has_barriers(family_traces):
    from repro.common.types import Op
    from tests.test_workloads import op_count
    assert op_count(family_traces["gang_diurnal"], Op.BARRIER) > 0
    assert op_count(family_traces["server"], Op.BARRIER) == 0


def test_server_skews_to_small_io(family_traces):
    server = [op.size for op in family_traces["server"].blockops]
    gang = [op.size for op in family_traces["gang_diurnal"].blockops]
    small = lambda sizes: sum(1 for s in sizes if s < 1024) / len(sizes)
    assert small(server) > small(gang)


def test_pattern_changes_work_volume():
    steady = generate(BUILTIN_PROFILES["server"], seed=11, scale=0.2)
    quiet = generate(
        BUILTIN_PROFILES["server"].replaced(pattern="bursty"),
        seed=11, scale=0.2)
    assert len(steady) > len(quiet)


def test_num_cpus_is_respected():
    profile = BUILTIN_PROFILES["server"].replaced(name="server2", num_cpus=2)
    trace = compile_profile(profile, seed=1, scale=0.1)
    trace.validate()
    assert trace.num_cpus == 2
    assert all(cols for cols in trace.columns)
