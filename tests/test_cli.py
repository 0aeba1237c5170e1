"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import main


def test_generate_npz_and_inspect(tmp_path, capsys):
    out = tmp_path / "t.npz"
    assert main(["generate", "Shell", "-o", str(out),
                 "--scale", "0.05", "--seed", "3"]) == 0
    assert out.exists()
    captured = capsys.readouterr()
    assert "records" in captured.out

    assert main(["inspect", str(out)]) == 0
    captured = capsys.readouterr()
    assert "data references" in captured.out
    assert "Shell" in captured.out


def test_generate_text_format(tmp_path):
    out = tmp_path / "t.txt"
    assert main(["generate", "TRFD_4", "-o", str(out), "--scale", "0.05",
                 "--text"]) == 0
    assert out.read_text().startswith("reprotrace v1")


def test_simulate_workload_by_name(capsys):
    assert main(["simulate", "Shell", "--scale", "0.05",
                 "--config", "Blk_Dma"]) == 0
    out = capsys.readouterr().out
    assert "OS misses" in out
    assert "Blk_Dma" in out


def test_simulate_trace_file(tmp_path, capsys):
    path = tmp_path / "t.npz"
    main(["generate", "Shell", "-o", str(path), "--scale", "0.05"])
    capsys.readouterr()
    assert main(["simulate", str(path)]) == 0
    assert "makespan" in capsys.readouterr().out


def test_simulate_unknown_config(capsys):
    assert main(["simulate", "Shell", "--config", "Nope",
                 "--scale", "0.05"]) == 2
    err = capsys.readouterr().err
    assert "unknown config" in err
    # The listing names every registered scheme, hybrids included.
    for name in ("Base", "BCoh_RelUp", "Hyb_UpdN", "Hyb_Deg", "Hyb_Static"):
        assert name in err


def test_simulate_unknown_config_rejected_before_trace_work(capsys):
    # Config validation must run before the workload is resolved or any
    # trace generated: an unknown config wins over an unknown workload
    # (same fail-fast contract as --profile-spec), and no trace-side
    # error message leaks out.
    assert main(["simulate", "not-a-workload", "--config", "Nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown config 'Nope'" in err
    assert "unknown workload" not in err


def test_simulate_hybrid_config(capsys):
    assert main(["simulate", "Shell", "--config", "Hyb_UpdN",
                 "--scale", "0.05", "--check"]) == 0
    out = capsys.readouterr().out
    assert "config:      Hyb_UpdN" in out
    assert "conformance: ok" in out


def test_report_single_artifact(tmp_path, capsys):
    out = tmp_path / "r.txt"
    assert main(["report", "--scale", "0.05", "--only", "table2",
                 "-o", str(out), "-q"]) == 0
    text = out.read_text()
    assert "### table2" in text
    assert "Block Op. (%)" in text


def test_report_ascii_simulates_each_cell_once(monkeypatch, capsys):
    """The ASCII figures render from the runner that built the report,
    so every figure cell is simulated exactly once."""
    from repro.experiments import runner as runner_mod
    from repro.experiments.all import artifact_cells

    calls = []
    real = runner_mod.simulate

    def counting(trace, config, **kwargs):
        calls.append(config.name)
        return real(trace, config, **kwargs)

    monkeypatch.setattr(runner_mod, "simulate", counting)
    assert main(["report", "--only", "figure3", "--scale", "0.03",
                 "--workers", "1", "--no-cache", "--ascii", "-q"]) == 0
    assert "### figure3 (ascii)" in capsys.readouterr().out
    assert len(calls) == len(set(artifact_cells("figure3")))


def test_ablation_unknown_study(capsys):
    assert main(["ablation", "nope", "--scale", "0.05"]) == 2
    assert "unknown study" in capsys.readouterr().err


def test_ablation_write_buffer(capsys):
    assert main(["ablation", "write_buffer_depth", "--workload", "Shell",
                 "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "depth=4" in out
    assert "OS misses" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        main([])


# ======================================================================
# Workload profiles through the CLI
# ======================================================================
def test_generate_unknown_profile_lists_available(tmp_path, capsys):
    assert main(["generate", "bogus", "-o", str(tmp_path / "x.npz")]) == 2
    err = capsys.readouterr().err
    assert "unknown workload 'bogus'" in err
    assert "server" in err and "Shell" in err and "--profile-spec" in err


def test_generate_builtin_family(tmp_path, capsys):
    out = tmp_path / "server.npz"
    assert main(["generate", "server", "-o", str(out),
                 "--scale", "0.05", "--seed", "3"]) == 0
    assert out.exists()
    assert "server" in capsys.readouterr().out


def test_generate_gen_name_and_frame_policy(tmp_path):
    out = tmp_path / "g.npz"
    assert main(["generate", "gen:server:c4:i060:steady:0:0", "-o",
                 str(out), "--scale", "0.04",
                 "--frame-policy", "colored"]) == 0
    from repro.trace import npzio
    trace = npzio.load(str(out))
    assert trace.metadata["frame_policy"] == "colored"
    assert trace.metadata["workload"] == "gen:server:c4:i060:steady:0:0"


def test_generate_profile_spec(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"name": "cli-spec", "app": "fsck", "rounds": 12}')
    out = tmp_path / "spec.npz"
    assert main(["generate", "--profile-spec", str(spec), "-o", str(out),
                 "--scale", "0.3"]) == 0
    assert "cli-spec" in capsys.readouterr().out
    assert main(["generate", "othername", "--profile-spec", str(spec),
                 "-o", str(out)]) == 2
    assert "defines 'cli-spec'" in capsys.readouterr().err


def test_generate_bad_profile_spec(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text('{"name": "x", "warp_prob": 2}')
    assert main(["generate", "--profile-spec", str(spec),
                 "-o", str(tmp_path / "x.npz")]) == 2
    assert "bad --profile-spec" in capsys.readouterr().err


def test_generate_requires_some_workload(tmp_path, capsys):
    assert main(["generate", "-o", str(tmp_path / "x.npz")]) == 2
    assert "no workload" in capsys.readouterr().err


def test_simulate_profile_by_name(capsys):
    assert main(["simulate", "bursty_mp", "--scale", "0.05",
                 "--config", "Blk_Dma"]) == 0
    assert "OS misses" in capsys.readouterr().out


def test_simulate_unknown_profile(capsys):
    assert main(["simulate", "not-a-profile", "--scale", "0.05"]) == 2
    assert "unknown workload" in capsys.readouterr().err


@pytest.mark.parametrize("argv, config", [
    (["report", "--only", "table3", "--scale", "0.03"], "Blk_Bypass"),
    (["sweep", "--samples", "1", "--configs", "Base,Blk_Dma",
      "--scale", "0.04"], "Blk_Dma"),
])
def test_failed_sweep_exits_1_naming_the_cell(monkeypatch, capsys, argv,
                                              config):
    """A failing sweep job ends report/sweep with one ``sweep failed``
    line naming the cell, exit status 1 and no traceback."""
    from repro.experiments import runner as runner_mod
    real = runner_mod.simulate

    def failing(trace, system, **kwargs):
        if system.name == config:
            raise RuntimeError("simulator exploded")
        return real(trace, system, **kwargs)

    monkeypatch.setattr(runner_mod, "simulate", failing)
    assert main(argv + ["--workers", "1", "--no-cache"]) == 1
    err = capsys.readouterr().err
    failed = [line for line in err.splitlines()
              if line.startswith("sweep failed:")]
    assert len(failed) == 1
    assert f"config {config}" in failed[0]
    assert "simulator exploded" in failed[0]
    assert "Traceback" not in err


def test_sweep_smoke(tmp_path, capsys):
    out = tmp_path / "sweep.txt"
    assert main(["sweep", "--samples", "2", "--configs", "Base",
                 "--scale", "0.04", "--workers", "1", "--no-cache",
                 "-q", "-o", str(out)]) == 0
    text = out.read_text()
    assert "gen:" in text
    assert "OS time" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--samples", "1", "--configs", "Warp"], "unknown configs"),
    (["sweep", "--samples", "1", "--families", "Shell"], "bad sweep"),
    (["sweep", "--samples", "1", "--assoc", "3"], "bad sweep machine"),
    (["sweep", "--samples", "1", "--bus-width", "12"], "bad sweep machine"),
    (["serve"], "invalid choice"),
    (["submit"], "invalid choice"),
    (["status"], "invalid choice"),
    (["cancel", "job-0001"], "invalid choice"),
], ids=["unknown-config", "unknown-family", "assoc-3", "bus-width-12",
        "serve", "submit", "status", "cancel"])
def test_rejected_invocations_exit_2(argv, message, capsys):
    """Bad sweep inputs exit 2 with a message; the removed sweep-daemon
    commands are argparse errors (SystemExit 2)."""
    if argv[0] == "sweep":
        assert main(argv) == 2
    else:
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
