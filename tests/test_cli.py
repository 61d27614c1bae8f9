"""Tests for the command-line front end: config handling, determinism,
diagnostics, and small-scale end-to-end runs.

Headline physics numbers are pinned by the acceptance suite; everything
here runs at reduced cutoffs so the whole module stays fast.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from condisp import cli, output, propagate
from condisp.cli import (
    MAX_GRID_POINTS,
    PRESETS,
    SWEEPABLE,
    ConfigError,
    build_parser,
    default_config,
    format_config,
    main,
    parse_config,
)
from condisp.output import _write_csv


def _never_called(*args, **kwargs):
    raise AssertionError("the experiment ran")


def _data_rows(path) -> list[str]:
    return [
        ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")
    ]


class TestConfigFormat:
    def test_default_round_trips_losslessly(self):
        cfg = default_config()
        assert parse_config(format_config(cfg)) == cfg

    def test_floats_round_trip_exactly(self):
        cfg = default_config()
        cfg["drive.alpha1"] = 0.1 + 0.2  # not exactly representable in decimal
        cfg["system.g"] = 1e-7
        assert parse_config(format_config(cfg)) == cfg

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\nexperiment = bessel\n  system.g = 0.3  \n"
        cfg = parse_config(text)
        assert cfg == {"experiment": "bessel", "system.g": 0.3}

    def test_unknown_key_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("experiment = bessel\nsystem.gg = 0.3\n")

    def test_bad_value_reports_key(self):
        with pytest.raises(ConfigError, match="system.g"):
            parse_config("system.g = fast\n")

    def test_bad_experiment_value(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config("experiment = trace-plot\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("system.g 0.3\n")

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_preset_echo_reads_back(self, name):
        args = build_parser().parse_args([PRESETS[name]["experiment"], "--preset", name])
        cfg, _ = cli._load_layers(args, args.command)
        assert parse_config(format_config(cfg)) == cfg
        cli._check_echo(cfg)

    @pytest.mark.parametrize("out", ["a#b", "a\nb"])
    def test_value_that_does_not_read_back_is_refused(self, tmp_path, capsys,
                                                      monkeypatch, out):
        """output.dir = a#b would echo as a, and a line break would end the
        echo's line: refused before anything runs or is written."""
        monkeypatch.setattr(cli, "cat_fidelity_experiment", _never_called)
        assert main(["cat-state", "--fock-dim", "16", "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: output.dir: the value ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_auto_sentinel_round_trips(self):
        # Derived-by-default values are held as None and echoed as "auto".
        cfg = default_config()
        assert cfg["drive.omega_d"] is None
        assert "drive.omega_d = auto" in format_config(cfg)
        assert parse_config(format_config(cfg))["drive.omega_d"] is None


class TestFlags:
    """Each config-backed flag stores under its dotted config key, which is
    all _merge_cli reads; a key outside the schema would be dropped."""

    NOT_CONFIG = {"help", "version", "command", "config", "preset", "per_trial",
                  "axis", "order", "x"}

    def test_every_flag_stores_under_a_schema_key(self):
        schema = set(default_config())
        parser = build_parser()
        subs = next(a for a in parser._actions if a.dest == "command").choices
        seen = set()
        for name, sub in subs.items():
            for action in sub._actions:
                if action.dest not in self.NOT_CONFIG:
                    assert action.dest in schema, (name, action.option_strings)
                    seen.add(action.dest)
        assert {"system.eta", "system.fock_dim", "output.dir", "sweep.workers"} <= seen

    def test_each_subcommand_takes_its_flags(self):
        """The option strings each subcommand accepts, and no others."""
        run = ["--config", "--out", "--fock-dim", "--dt", "--eta", "--g", "--alpha",
               "--alpha2", "--omega-d", "--phi", "--n-qubits", "-h", "--help"]
        expected = {
            "validate-effective": run + ["--periods", "--preset"],
            "gate-fidelity": run + ["--trials", "--seed", "--per-trial", "--preset"],
            "cat-state": run + ["--steps", "--preset"],
            "sweep": run + ["--metric", "--workers", "--steps", "--trials", "--seed",
                            "--periods", "--axis"],
            "bessel": ["--order", "--x", "-h", "--help"],
        }
        subs = next(a for a in build_parser()._actions if a.dest == "command").choices
        assert sorted(subs) == sorted(expected)
        for name, sub in subs.items():
            got = [s for action in sub._actions for s in action.option_strings]
            assert sorted(got) == sorted(expected[name]), name

    @pytest.mark.parametrize("args, says", [
        (["gate-fidelity", "--fock-dim", "x"], "system.fock_dim: expected an integer, got 'x'"),
        (["gate-fidelity", "--trials", "1.5"], "gate.trials: expected an integer, got '1.5'"),
        (["gate-fidelity", "--eta", "nan"], "system.eta: must be finite, got 'nan'"),
        (["validate-effective", "--n-qubits", "3"], "system: n_qubits must be 1 or 2, got 3"),
        (["sweep", "--metric", "foo", "--axis", "system.g", "0.1", "0.2", "2"],
         "sweep.metric: must be one of min-f1, mean-f1, gate-fidelity, cat-fidelity; "
         "got 'foo'"),
    ], ids=["fock-dim-x", "trials-1.5", "eta-nan", "n-qubits-3", "metric-foo"])
    def test_bad_flag_value_names_its_key(self, tmp_path, capsys, args, says):
        """A flag's text is read by its config key's parser, so a malformed
        value ends with the one error line a config file's would."""
        assert main(args + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {says}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--dt", "--alpha2", "--omega-d"])
    def test_auto_flag_is_the_default(self, tmp_path, flag):
        """A flag takes auto as its key does in a config file: the same
        bytes as leaving the flag out."""
        args = ["validate-effective", "--fock-dim", "8", "--periods", "0.05",
                "--out", str(tmp_path)]
        path = tmp_path / "validate-effective-eta3-g0.2.csv"
        assert main(args) == 0
        default = path.read_bytes()
        path.unlink()
        assert main(args + [flag, "auto"]) == 0
        assert path.read_bytes() == default

    def test_preset_pair_yields_to_an_explicit_eta(self, tmp_path):
        out = tmp_path / "out"
        args = ["validate-effective", "--preset", "effective-validation",
                "--fock-dim", "8", "--periods", "0.05", "--out", str(out)]
        assert main(args) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "validate-effective-eta2.5-g0.2.csv", "validate-effective-eta3.5-g0.2.csv"]
        cfgfile = tmp_path / "eta.cfg"
        cfgfile.write_text("system.eta = 4.0\n")
        for extra, eta in ((["--eta", "3.2"], "3.2"), (["--config", str(cfgfile)], "4")):
            for p in out.iterdir():
                p.unlink()
            assert main(args + extra) == 0
            assert [p.name for p in out.iterdir()] == [f"validate-effective-eta{eta}-g0.2.csv"]


class TestPresets:
    def test_presets_parse_against_schema(self):
        base = set(default_config())
        for name, preset in PRESETS.items():
            assert set(preset) <= base, name
            assert "experiment" in preset, name

    def test_expected_preset_names(self):
        assert set(PRESETS) == {
            "effective-validation",
            "validity-breakdown",
            "gate-weak",
            "gate-strong",
            "cat-1step",
            "cat-2step",
        }

    def test_preset_subcommand_mismatch_rejected(self, capsys):
        # cat presets belong to cat-state; argparse itself refuses.
        with pytest.raises(SystemExit) as exc:
            main(["gate-fidelity", "--preset", "cat-1step"])
        assert exc.value.code == 2


class TestBadInvocations:
    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "condisp" in capsys.readouterr().out

    def test_config_file_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        for line in ("system.not_a_key = 1", "evolution.frame = lab-driven",
                     "output.format = csv", "evolution.method = rk4"):
            bad.write_text(line + "\n")
            code = main(["cat-state", "--fock-dim", "8", "--config", str(bad)])
            assert code == 2
            assert "error: line 1: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["cat-state", "--steps", "12", "--fock-dim", "8"],  # truncation budget
        ["gate-fidelity", "--alpha2", "0.5", "--fock-dim", "8"],  # couplings not opposite
        ["gate-fidelity", "--dt", "1.0", "--fock-dim", "8"],  # step ceiling
        ["cat-state", "--phi", "1.0", "--fock-dim", "16"],  # off the phi = pi/2 closed form
        # |beta|^2 = 0.996 in the trace's effective model, past Fock 8's 8/9
        ["validate-effective", "--fock-dim", "8", "--g", "0.5", "--periods", "1"],
        ["gate-fidelity", "--phi", "0", "--trials", "200", "--fock-dim", "16"],
        # the gate loop's |2 G_s|^2 = 16 r^2 = 0.996, past Fock 4's 4/9
        ["gate-fidelity", "--g", "0.5", "--fock-dim", "4"],
        # 5e14 steps, past the 10^9 a propagation may take
        ["validate-effective", "--periods", "1e12", "--fock-dim", "8"],
        # petabytes of trials, which NumPy refuses at once
        ["gate-fidelity", "--trials", "1000000000000000", "--fock-dim", "8"],
    ])
    def test_library_errors_exit_2(self, tmp_path, capsys, args):
        assert main(args + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("args, says", [
        (["gate-fidelity", "--eta", "0"], "system: omega_q must be positive, got 0.0"),
        (["validate-effective", "--eta", "-1"], "system: omega_q must be positive, got -1.0"),
        (["cat-state", "--eta", "0"], "system: omega_q must be positive, got 0.0"),
        (["sweep", "--axis", "system.eta", "-1", "3", "3"],
         "sweep point system.eta=-1: system: omega_q must be positive, got -1.0"),
        (["gate-fidelity", "--eta", "1.5", "--n-qubits", "1"],
         "system.n_qubits: gate-fidelity needs 2 qubits"),
        (["gate-fidelity", "--eta", "1.5", "--trials", "0"], "gate.trials: must be >= 1, got 0"),
        (["cat-state", "--eta", "1.5", "--steps", "0"], "cat.steps: must be >= 1, got 0"),
        (["sweep", "--workers", "0", "--axis", "system.eta", "1.5", "1.8", "2"],
         "sweep.workers: must be >= 1, got 0"),
        (["cat-state", "--eta", "1.5", "--phi", "1", "--fock-dim", "16"],
         "drive.phi: cat-state requires phi = pi/2, got phi = 1.0"),
        (["validate-effective", "--eta", "1.5", "--phi", "1", "--fock-dim", "8"],
         "drive.phi: validate-effective requires phi = pi/2, got phi = 1.0"),
        (["sweep", "--metric", "mean-f1", "--phi", "1", "--axis", "system.eta", "1.5", "1.8",
          "2", "--fock-dim", "8", "--periods", "0.1"],
         "drive.phi: mean-f1 requires phi = pi/2, got phi = 1.0"),
    ], ids=["gate-eta-0", "validate-eta--1", "cat-eta-0", "sweep-eta--1", "gate-1-qubit",
            "gate-0-trials", "cat-0-steps", "sweep-0-workers", "cat-phi-1", "validate-phi-1",
            "sweep-phi-1"])
    def test_refusals_come_without_the_eta_warning(self, tmp_path, capsys, args, says):
        """A config the run cannot use, an eta <= 0 or a value that the
        experiment, sweep metric or sweep refuses, of the run or of any sweep
        point, ends with one error line and no low-eta warning, which would
        say that the run proceeds."""
        assert main(args + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {says}\n"

    def test_unusable_sweep_base_is_refused_before_any_point(self, tmp_path, capsys,
                                                               monkeypatch):
        """A sweep's header echoes its base config, so a base that does not
        build is refused before the first point runs, even where the swept
        axis overrides the offending value."""
        monkeypatch.setattr(cli, "_metric_value", _never_called)
        args = ["sweep", "--g", "-1", "--axis", "system.g", "0.1", "0.2", "4",
                "--fock-dim", "16", "--periods", "1", "--out", str(tmp_path)]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: system: g must be >= 0, got -1.0\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [
        ["gate-fidelity", "--phi", "0"],
        ["gate-fidelity", "--alpha2", "0.5"],
        ["gate-fidelity", "--trials", "0"],
        ["sweep", "--metric", "gate-fidelity", "--axis", "drive.alpha2", "0.3", "0.5", "2"],
    ])
    def test_gate_refusals_come_before_propagating(self, tmp_path, capsys, monkeypatch,
                                                   args):
        def no_run(*args, **kwargs):
            raise AssertionError("columns propagated")

        monkeypatch.setattr("condisp.gate.evolve_columns", no_run)
        assert main(args + ["--fock-dim", "8", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("args", [
        ["gate-fidelity", "--seed", "-1", "--trials", "10"],
        ["sweep", "--metric", "gate-fidelity", "--seed", "-1",
         "--axis", "system.g", "0.1", "0.2", "2"],
    ])
    def test_negative_seed_refused_before_propagating(self, tmp_path, capsys, monkeypatch,
                                                      args):
        """NumPy's generator refuses a negative seed with a message that
        names no key; the gate refuses it first, naming gate.seed."""
        monkeypatch.setattr(cli, "gate_columns", _never_called)
        monkeypatch.setattr("condisp.gate.gate_columns", _never_called)
        assert main(args + ["--fock-dim", "8", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "gate.seed: must be >= 0, got -1" in err

    @pytest.mark.parametrize("args, says", [
        (["--g", "1e200", "--trials", "3"], "g = 1e+200 is too large"),
        (["--dt", "1e-20", "--trials", "2"], "dt = 1e-20 takes 3.14e+20 steps"),
        (["--dt", "1e-300", "--trials", "2"], "dt = 1e-300 takes 3.14e+300 steps"),
        # 3e15 steps, which would run for millennia
        (["--dt", "1e-15", "--trials", "2"], "dt = 1e-15 takes 3.14e+15 steps"),
    ])
    def test_overflowing_values_exit_2(self, tmp_path, capsys, monkeypatch, args, says):
        """A g whose square overflows, and a dt that takes more than the
        10^9 steps a propagation may take, end with one error line naming
        them, before any propagation starts."""
        def no_run(*args, **kwargs):
            raise AssertionError("propagation started")

        monkeypatch.setattr(propagate, "_run", no_run)
        assert main(["gate-fidelity", "--fock-dim", "8", *args, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and says in err and err.count("\n") == 1

    @pytest.mark.parametrize("where", ["a file", "under a file", "empty"])
    def test_unusable_out_fails_before_running(self, tmp_path, capsys, monkeypatch, where):
        """An --out that cannot be made a directory ends with one error line
        and status 2 before the experiment starts."""
        monkeypatch.setattr(cli, "cat_fidelity_experiment", _never_called)
        (tmp_path / "f").write_text("")
        out = {"a file": tmp_path / "f", "under a file": tmp_path / "f" / "sub",
               "empty": ""}[where]
        assert main(["cat-state", "--fock-dim", "16", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: output.dir: cannot create ") and err.count("\n") == 1

    def test_unwritable_result_file_exits_2(self, tmp_path, capsys, monkeypatch):
        def refuse(path, *args):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(cli, "_write_csv", refuse)
        assert main(["cat-state", "--fock-dim", "16", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 13] Permission denied: ") and err.count("\n") == 1

    def test_bessel_rejects_run_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bessel", "--order", "0", "--x", "1.0", "--seed", "5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("args", [
        ["validate-effective", "--fock-dim", "8", "--seed", "5"],
        ["cat-state", "--fock-dim", "8", "--seed", "5"],
        ["bessel", "--order", "0", "--x", "1.0", "--config", "any.cfg"],
    ])
    def test_unread_flags_are_refused(self, capsys, args):
        """Only gate-fidelity and sweep read the seed, and bessel reads no
        config; argparse refuses those flags elsewhere."""
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {args[-2]} {args[-1]}" in capsys.readouterr().err

    def test_method_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cat-state", "--method", "rk4", "--fock-dim", "8"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --method rk4" in capsys.readouterr().err

    def test_config_experiment_conflict_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "gate.cfg"
        cfgfile.write_text("experiment = gate-fidelity\n")
        code = main(["cat-state", "--config", str(cfgfile), "--fock-dim", "8"])
        assert code == 2
        assert "experiment" in capsys.readouterr().err


@pytest.mark.parametrize("args, builds", [
    (["validate-effective", "--fock-dim", "8", "--periods", "0.05"], 1),
    (["gate-fidelity", "--fock-dim", "8", "--trials", "5", "--per-trial"], 1),
    (["cat-state", "--fock-dim", "16"], 1),
    (["sweep", "--fock-dim", "8", "--periods", "0.05", "--workers", "1",
      "--axis", "system.g", "0.1", "0.2", "3"], 4),
], ids=["validate-effective", "gate-fidelity", "cat-state", "sweep-3-points"])
def test_one_build_per_run(tmp_path, monkeypatch, args, builds):
    """_build turns the config into model objects once per run, and once
    more per sweep grid point; the header, the experiment and the metric
    take the objects it built."""
    calls = []

    def spy(cfg, real=cli._build):
        calls.append(cfg)
        return real(cfg)

    monkeypatch.setattr(cli, "_build", spy)
    assert main(args + ["--out", str(tmp_path)]) == 0
    assert len(calls) == builds


class TestBesselCommand:
    def test_prints_15_significant_digits(self, capsys):
        assert main(["bessel", "--order", "1", "--x", "1.832"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "0.58184792027187"

    def test_zero_order(self, capsys):
        assert main(["bessel", "--order", "0", "--x", "0"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    @pytest.mark.parametrize("x", ["1e5", "1e12"])
    def test_argument_beyond_limit_refused(self, x, capsys):
        """Past |x| = 1e4 the recurrence would run about x steps; the
        command refuses at once, naming the limit."""
        assert main(["bessel", "--order", "0", "--x", x]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and "|x| <= 10000" in lines[0]


class TestValidateEffectiveCommand:
    ARGS = [
        "validate-effective",
        "--fock-dim", "8",
        "--periods", "0.2",
    ]

    def test_writes_trace_with_header(self, tmp_path, capsys):
        code = main(self.ARGS + ["--out", str(tmp_path)])
        assert code == 0
        out_file = tmp_path / "validate-effective-eta3-g0.2.csv"
        assert out_file.exists()
        lines = out_file.read_text().splitlines()
        header = [ln for ln in lines if ln.startswith("#")]
        assert any("condisp" in ln for ln in header)  # version stamp
        assert any("system.g = 0.2" in ln for ln in header)  # config echo
        assert any("validity" in ln for ln in header)
        assert not any(key in ln for ln in header
                       for key in ("evolution.frame", "output.format", "evolution.method"))
        rows = _data_rows(out_file)
        assert rows[0] == "t_over_Tr,fidelity"
        # 0.2 periods at 500 samples/period plus the t=0 sample.
        assert len(rows) == 1 + 101
        fids = np.array([float(r.split(",")[1]) for r in rows[1:]])
        assert np.all(fids <= 1.0 + 1e-9)
        assert fids[0] == pytest.approx(1.0, abs=1e-9)
        printed = capsys.readouterr().out
        assert "min_F1" in printed and "mean_F1" in printed

    def test_byte_identical_reruns(self, tmp_path):
        # Identical config (including output dir) must give identical bytes.
        out_file = tmp_path / "validate-effective-eta3-g0.2.csv"
        assert main(self.ARGS + ["--out", str(tmp_path)]) == 0
        first = out_file.read_bytes()
        assert main(self.ARGS + ["--out", str(tmp_path)]) == 0
        assert out_file.read_bytes() == first

    def test_low_eta_warns_but_proceeds(self, tmp_path, capsys):
        code = main(
            ["validate-effective", "--eta", "1.5", "--fock-dim", "8",
             "--periods", "0.05", "--out", str(tmp_path)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err.lower()
        assert (tmp_path / "validate-effective-eta1.5-g0.2.csv").exists()

    def test_config_file_layering(self, tmp_path):
        # CLI flags must override config-file values.
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "experiment = validate-effective\nsystem.fock_dim = 8\n"
            "trace.periods = 0.05\nsystem.eta = 2.5\n"
        )
        code = main(
            ["validate-effective", "--config", str(cfgfile), "--eta", "3.5",
             "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "validate-effective-eta3.5-g0.2.csv").exists()


class TestGateCommand:
    def test_runs_and_reports(self, tmp_path, capsys):
        code = main(
            ["gate-fidelity", "--fock-dim", "10", "--trials", "4", "--seed", "9",
             "--per-trial", "--out", str(tmp_path)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "mean_fidelity" in printed
        assert "trials = 4" in printed
        per_trial = tmp_path / "gate-fidelity-trials-seed9.csv"
        assert per_trial.exists()
        rows = _data_rows(per_trial)
        assert rows[0] == "trial,fidelity"
        assert len(rows) == 5
        fids = np.array([float(r.split(",")[1]) for r in rows[1:]])
        assert np.all((fids > 0.9) & (fids <= 1.0 + 1e-12))


    def test_per_trial_reruns_byte_identical(self, tmp_path):
        args = ["gate-fidelity", "--fock-dim", "8", "--trials", "300", "--seed", "5",
                "--per-trial", "--out", str(tmp_path)]
        per_trial = tmp_path / "gate-fidelity-trials-seed5.csv"
        texts = []
        for _ in range(2):
            assert main(args) == 0
            texts.append(per_trial.read_bytes())
            per_trial.unlink()
        assert texts[0] == texts[1]
        assert texts[0].count(b"\n") > 300

    @pytest.mark.parametrize("fock_dim, top", [(12, "7.9e-06"), (32, None)])
    def test_truncation_warning(self, tmp_path, capsys, monkeypatch, fock_dim, top):
        """gate-strong puts a population of 7.9e-6 on the top level at Fock
        12, and 7.3e-19 at 32: one warning on stderr at 12, none at 32, and
        neither stdout nor the CSV bytes change."""
        args = ["gate-fidelity", "--preset", "gate-strong", "--fock-dim", str(fock_dim),
                "--per-trial", "--out", str(tmp_path)]
        runs = []
        for limit in (cli._TRUNCATION_WARN, float("inf")):
            monkeypatch.setattr(cli, "_TRUNCATION_WARN", limit)
            assert main(args) == 0
            runs.append((capsys.readouterr(),
                         (tmp_path / "gate-fidelity-trials-seed7.csv").read_bytes()))
        (warned, csv), (quiet, quiet_csv) = runs
        assert warned.out == quiet.out and csv == quiet_csv and not quiet.err
        want = "0.786181668484" if fock_dim == 12 else "0.786175258878"
        assert f"mean_fidelity = {want}\n" in warned.out
        if top is None:
            assert not warned.err
        else:
            assert warned.err.startswith(f"warning: the top Fock level held a population "
                                         f"of up to {top} (above 1e-12)")
            assert warned.err.count("\n") == 1


class TestCsvWriter:
    def test_matches_per_cell_format(self, tmp_path):
        """One-shot formatting of a list, an array and a list column writes
        the bytes of the per-row ",".join(f"{v:.12g}") it replaced."""
        values = [0.0, -0.0, 1.0, -2.5, 1e-5, -1e-5, 1.23456789012345e-7, 1e12,
                  -1e12, 123456789012.5, 1e15, 6.02214076e23, np.pi, -np.e,
                  np.float64(0.994743715588123), np.float64(-1e-300), np.inf, np.nan]
        rows = [(i, v, -i) for i, v in enumerate(values)]
        rows += [(10**12, 7, -3), (np.int64(42), 0.5, 2**53)]
        first, middle, last = (list(c) for c in zip(*rows))
        path = tmp_path / "w.csv"
        _write_csv(path, ["a = 1", "b"], "i,v,j", [first, np.array(middle), last])
        oracle = "# a = 1\n# b\ni,v,j\n" + "".join(
            ",".join(f"{v:.12g}" for v in row) + "\n" for row in rows)
        assert path.read_bytes() == oracle.encode("utf-8")

    @staticmethod
    def _per_row(comments, header, rows) -> bytes:
        """The writer's earlier form, one % per row."""
        fmt = ",".join(["%.12g"] * (header.count(",") + 1)) + "\n"
        return "".join([f"# {line}\n" for line in comments] + [header + "\n"]
                       + [fmt % tuple(row) for row in rows]).encode("utf-8")

    @staticmethod
    def _written(tmp_path, monkeypatch, args) -> list:
        """(path, comments, header, columns) of every file main(args) writes."""
        written = []

        def spy(path, comments, header, columns, real=_write_csv):
            real(path, comments, header, columns)
            written.append((path, comments, header, columns))

        monkeypatch.setattr(output, "_write_csv", spy)
        monkeypatch.setattr(cli, "_write_csv", spy)
        assert main(args + ["--out", str(tmp_path)]) == 0
        return written

    @pytest.mark.parametrize("args", [
        ["validate-effective", "--fock-dim", "8", "--periods", "0.05"],
        ["gate-fidelity", "--fock-dim", "8", "--trials", "300", "--per-trial"],
        ["cat-state", "--fock-dim", "16", "--steps", "1"],
        ["sweep", "--metric", "mean-f1", "--fock-dim", "8", "--periods", "0.05",
         "--axis", "system.g", "0.1", "0.2", "3"],
        ["sweep", "--metric", "mean-f1", "--fock-dim", "8", "--periods", "0.05",
         "--axis", "system.g", "0.2", "0.2", "1"],  # one row
        ["gate-fidelity", "--trials", "20000", "--seed", "1", "--per-trial"],  # the benchmark's
    ])
    def test_subcommand_csvs_match_per_row_format(self, tmp_path, monkeypatch, args):
        [(path, comments, header, columns)] = self._written(tmp_path, monkeypatch, args)
        rows = list(zip(*columns))
        assert (len(rows) == 1) == (args[-3:] == ["0.2", "0.2", "1"])
        with open(path, "rb") as f:
            assert f.read() == self._per_row(comments, header, rows)

    def test_gate_file_collects_no_garbage(self, tmp_path, monkeypatch):
        """Writing the benchmark's 20,000-row gate file sets off at most one
        generation-0 garbage collection (the allocations before it may
        have brought the next one near); the per-row writer's row tuples
        set off two dozen."""
        args = ["gate-fidelity", "--trials", "20000", "--seed", "1", "--per-trial"]
        [(path, comments, header, columns)] = self._written(tmp_path, monkeypatch, args)
        assert len(columns[0]) == 20000
        before = gc.get_stats()[0]["collections"]
        _write_csv(path, comments, header, columns)
        assert gc.get_stats()[0]["collections"] - before <= 1


@pytest.mark.parametrize("args", [["bessel", "--order", "1", "--x", "1.832"],
                                  ["cat-state", "--fock-dim", "16", "--steps", "1"]],
                         ids=["bessel", "cat-state"])
def test_main_leaves_no_cycles(tmp_path, capsys, args):
    """main builds its parser once, so after a warm-up call a call leaves
    nothing for the cyclic collector; a parser built per call left about
    500 objects in cycles."""
    if args[0] != "bessel":
        args = args + ["--out", str(tmp_path)]
    assert main(args) == 0
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(args) == 0
        assert gc.collect() == 0
        left = [type(o).__name__ for o in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not left, left[:10]


def test_integer_columns_write_as_general_format(tmp_path):
    """A range within +-1e12 is written by %d, which must give the bytes of
    %.12g; a range that reaches 1e12 and every other column, of ints,
    bools or NumPy integers, keep %.12g, so no cell is truncated to an
    integer."""
    columns = [range(3), [1, 2.5, 3], [3, 4, np.int64(-5)], [True, False, 1],
               [-7, 10**12, 8], range(10**12 - 2, 10**12 + 1), range(-10**12, 3 - 10**12),
               np.array([-5, 2**40, 9], dtype=np.int64), range(-1, 2)]
    _write_csv(tmp_path / "w.csv", [], "a,b,c,d,e,f,g,h,i", columns)
    oracle = "a,b,c,d,e,f,g,h,i\n" + "".join(",".join(f"{v:.12g}" for v in row) + "\n"
                                              for row in zip(*columns))
    assert "1e+12" in oracle and "-1e+12" in oracle
    assert (tmp_path / "w.csv").read_bytes() == oracle.encode("utf-8")


class TestCatCommand:
    def test_runs_and_writes_distributions(self, tmp_path, capsys):
        code = main(
            ["cat-state", "--fock-dim", "16", "--steps", "1", "--out", str(tmp_path)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "branch_amplitude" in printed
        assert "fidelity" in printed
        out_file = tmp_path / "cat-state-k1.csv"
        rows = _data_rows(out_file)
        assert rows[0] == "n,p_even_n,p_odd_n"
        assert len(rows) == 17
        even = np.array([float(r.split(",")[1]) for r in rows[1:]])
        odd = np.array([float(r.split(",")[2]) for r in rows[1:]])
        # Parity-pure columns: even column vanishes on odd n and vice versa.
        assert np.max(even[1::2]) <= 1e-6
        assert np.max(odd[0::2]) <= 1e-6
        assert even.sum() == pytest.approx(1.0, abs=1e-6)
        assert odd.sum() == pytest.approx(1.0, abs=1e-6)


class TestSweepCommand:
    BASE = [
        "sweep", "--metric", "mean-f1", "--fock-dim", "8", "--periods", "0.05",
    ]

    def test_sweep_warns_once_for_its_points(self, tmp_path, capsys):
        """Both points of a gate sweep at Fock 12 truncate: one warning."""
        code = main(["sweep", "--metric", "gate-fidelity", "--fock-dim", "12", "--trials", "5",
                     "--axis", "system.g", "0.45", "0.5", "2", "--out", str(tmp_path)])
        assert code == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: the top Fock level") and err.count("\n") == 1

    def test_single_point_sweep_matches_direct_metric(self, tmp_path, capsys):
        code = main(
            self.BASE + ["--axis", "system.g", "0.2", "0.2", "1", "--out", str(tmp_path)]
        )
        assert code == 0
        rows = _data_rows(tmp_path / "sweep.csv")
        assert rows[0] == "system.g,mean-f1"
        g_val, metric = rows[1].split(",")
        assert float(g_val) == 0.2

        # Direct computation of the same metric.
        from condisp import DriveParams, HilbertLayout, SystemParams, basis_state
        from condisp.propagate import EvolutionConfig, fidelity_trace

        p = SystemParams(omega_q=3.0, g=0.2)
        d = DriveParams.from_alpha((1.20242, -1.20242), 3.0)
        lay = HilbertLayout(2, 8)
        tr = fidelity_trace(
            p, d, basis_state(lay, "gg", 0), 0.05 * 2 * np.pi, EvolutionConfig()
        )
        assert float(metric) == pytest.approx(tr.mean(), abs=1e-9)

    def test_grid_ordering_and_trend(self, tmp_path, capsys):
        code = main(
            self.BASE + ["--axis", "system.g", "0.1", "0.5", "3", "--out", str(tmp_path)]
        )
        assert code == 0
        rows = _data_rows(tmp_path / "sweep.csv")
        gs = [float(r.split(",")[0]) for r in rows[1:]]
        assert gs == pytest.approx([0.1, 0.3, 0.5])
        text = (tmp_path / "sweep.csv").read_text()
        assert "trend" in text
        printed = capsys.readouterr().out
        assert "points = 3" in printed

    def test_worker_count_does_not_change_data(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        args = self.BASE + ["--axis", "system.eta", "2.5", "3.5", "3"]
        assert main(args + ["--workers", "1", "--out", str(a)]) == 0
        assert main(args + ["--workers", "2", "--out", str(b)]) == 0
        assert _data_rows(a / "sweep.csv") == _data_rows(b / "sweep.csv")

    def test_pool_is_not_imported_with_the_cli(self):
        """Only a sweep with more than one worker imports the process pool,
        so no other command pays for it; and the package is pure NumPy at
        run time, so it imports no SciPy."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        probe = ("import sys, condisp, condisp.cli; "
                 "print('concurrent.futures.process' in sys.modules, 'scipy' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False False"

    @pytest.mark.parametrize("workers, points, cpus, pool", [
        ("5000", 2, 64, 2), ("5000", 5, 3, 3), ("2", 5, 64, 2), ("5000", 2, None, None),
    ])
    def test_pool_is_capped(self, tmp_path, monkeypatch, workers, points, cpus, pool):
        """The pool forks all its workers at once, so it gets no more than
        the grid's points or the CPUs (one, if their count is unknown, which
        runs the grid in this process)."""
        import concurrent.futures

        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            @staticmethod
            def map(fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        args = self.BASE + ["--axis", "system.g", "0.1", "0.2", str(points)]
        assert main(args + ["--workers", workers, "--out", str(tmp_path)]) == 0
        assert sizes == ([] if pool is None else [pool])
        assert len(_data_rows(tmp_path / "sweep.csv")) == 1 + points

    def test_two_axes(self, tmp_path):
        code = main(
            self.BASE
            + ["--axis", "system.eta", "2.5", "3.5", "2",
               "--axis", "system.g", "0.1", "0.2", "2", "--out", str(tmp_path)]
        )
        assert code == 0
        rows = _data_rows(tmp_path / "sweep.csv")
        assert rows[0] == "system.eta,system.g,mean-f1"
        assert len(rows) == 5
        # Row-major: first axis varies slowest.
        firsts = [float(r.split(",")[0]) for r in rows[1:]]
        assert firsts == pytest.approx([2.5, 2.5, 3.5, 3.5])

    @pytest.mark.parametrize("route", ["flags", "config"])
    def test_repeated_axis_rejected(self, tmp_path, capsys, route):
        # the second system.g would override the first at every point, so
        # the rows would carry values that were never run
        if route == "flags":
            extra = ["--axis", "system.g", "0.1", "0.2", "2",
                     "--axis", "system.g", "0.3", "0.4", "2"]
        else:
            cfgfile = tmp_path / "sweep.cfg"
            cfgfile.write_text(
                "sweep.axis1 = system.g\nsweep.start1 = 0.1\nsweep.stop1 = 0.2\n"
                "sweep.points1 = 2\nsweep.axis2 = system.g\nsweep.start2 = 0.3\n"
                "sweep.stop2 = 0.4\nsweep.points2 = 2\n")
            extra = ["--config", str(cfgfile)]
        code = main(self.BASE + extra + ["--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sweep.axis2: 'system.g'") and err.count("\n") == 1
        assert not (tmp_path / "sweep.csv").exists()

    def test_oversized_grid_rejected(self, tmp_path, capsys):
        code = main(
            self.BASE
            + ["--axis", "system.eta", "2", "4", "101",
               "--axis", "system.g", "0.1", "0.5", "101", "--out", str(tmp_path)]
        )
        assert code == 2
        assert str(MAX_GRID_POINTS) in capsys.readouterr().err
        # refused before its grid is allocated (NumPy refuses 8 TB outright)
        code = main(self.BASE + ["--axis", "system.g", "0.1", "0.2", "1000000000000",
                                 "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(MAX_GRID_POINTS) in err

    def test_non_sweepable_axis_rejected(self, tmp_path, capsys):
        code = main(
            self.BASE + ["--axis", "system.fock_dim", "8", "16", "2", "--out", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        for key in SWEEPABLE:
            assert key in err

    def test_requires_an_axis(self, tmp_path, capsys):
        code = main(self.BASE + ["--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failing_point_named_by_coordinates(self, tmp_path, capsys, workers):
        # 12 cat steps at g = 0.2 overrun the Fock-8 truncation budget;
        # the g = 0.01 point before it is fine.
        code = main(
            ["sweep", "--metric", "cat-fidelity", "--n-qubits", "1", "--steps", "12",
             "--fock-dim", "8", "--axis", "system.g", "0.01", "0.2", "2",
             "--workers", workers, "--out", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sweep point system.g=0.2: |beta|^2")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_unallocatable_point_named_by_coordinates(self, tmp_path, capsys):
        # 1e15 gate trials: petabytes of fidelities, which NumPy refuses at once
        code = main(
            ["sweep", "--metric", "gate-fidelity", "--trials", "1000000000000000",
             "--fock-dim", "8", "--axis", "system.g", "0.1", "0.2", "2",
             "--out", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sweep point system.g=0.1: Unable to allocate")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_low_eta_points_warn_once(self, tmp_path, capsys):
        code = main(
            ["sweep", "--metric", "mean-f1", "--axis", "system.eta", "1.5", "3", "4",
             "--periods", "0.05", "--fock-dim", "8", "--out", str(tmp_path)]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: eta = 1.5, 2 <= 2;") and err.count("\n") == 1

    def test_cat_metric_requires_single_qubit(self, tmp_path, capsys):
        code = main(
            ["sweep", "--metric", "cat-fidelity", "--fock-dim", "8",
             "--axis", "system.g", "0.1", "0.2", "2", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "n_qubits" in capsys.readouterr().err
