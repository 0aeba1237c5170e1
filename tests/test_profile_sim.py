"""Smoke test for ``tools/profile_sim.py`` on a machine-axis cell."""

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "profile_sim.py"


@pytest.fixture(scope="module")
def profile_sim():
    spec = importlib.util.spec_from_file_location("profile_sim", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_profiles_generated_workload_on_machine_point(profile_sim, capsys):
    assert profile_sim.main(["--workload", "gen:server:c8:i060:steady:0:0",
                             "--machine", "8cpu-2way-16B", "--scale", "0.05",
                             "--limit", "200"]) == 0
    out, err = capsys.readouterr()
    assert "gen:server:c8:i060:steady:0:0/Base on 8cpu-2way-16B" in err
    assert "records from npz" in err
    assert "function calls" in out
    assert "step" in out
    # The system is built inside the profile, as a sweep's sim job
    # builds it from its npz-loaded trace.
    assert any("system.py:" in line and "(__init__)" in line
               for line in out.splitlines())


def test_rejects_unknown_machine(profile_sim):
    with pytest.raises(SystemExit):
        profile_sim.main(["--machine", "3cpu"])
