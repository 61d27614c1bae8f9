"""Tests for the command-line front end: config handling, determinism,
diagnostics, and small-scale end-to-end runs.

Headline physics numbers are pinned by the acceptance suite; everything
here runs at reduced cutoffs so the whole module stays fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from condisp.cli import (
    MAX_GRID_POINTS,
    PRESETS,
    SWEEPABLE,
    ConfigError,
    default_config,
    format_config,
    main,
    parse_config,
)
from condisp.propagate import _write_csv


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

    def test_auto_sentinel_round_trips(self):
        # Derived-by-default values are held as None and echoed as "auto".
        cfg = default_config()
        assert cfg["drive.omega_d"] is None
        assert "drive.omega_d = auto" in format_config(cfg)
        assert parse_config(format_config(cfg))["drive.omega_d"] is None


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
                     "output.format = csv"):
            bad.write_text(line + "\n")
            code = main(["bessel", "--order", "0", "--x", "1.0", "--config", str(bad)])
            assert code == 2
            assert "error: line 1: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["cat-state", "--steps", "12", "--fock-dim", "8"],  # truncation budget
        ["gate-fidelity", "--alpha2", "0.5", "--fock-dim", "8"],  # couplings not opposite
        ["gate-fidelity", "--dt", "1.0", "--fock-dim", "8"],  # step ceiling
        ["cat-state", "--phi", "1.0", "--fock-dim", "16"],  # off the phi = pi/2 closed form
        # |beta|^2 = 0.996 in the trace's effective model, past Fock 8's 8/9
        ["validate-effective", "--fock-dim", "8", "--g", "0.5", "--periods", "1"],
    ])
    def test_library_errors_exit_2(self, tmp_path, capsys, args):
        assert main(args + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_bessel_rejects_run_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bessel", "--order", "0", "--x", "1.0", "--seed", "5"])
        assert exc.value.code == 2

    def test_config_experiment_conflict_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "gate.cfg"
        cfgfile.write_text("experiment = gate-fidelity\n")
        code = main(["cat-state", "--config", str(cfgfile), "--fock-dim", "8"])
        assert code == 2
        assert "experiment" in capsys.readouterr().err


class TestBesselCommand:
    def test_prints_15_significant_digits(self, capsys):
        assert main(["bessel", "--order", "1", "--x", "1.832"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "0.58184792027187"

    def test_zero_order(self, capsys):
        assert main(["bessel", "--order", "0", "--x", "0"]) == 0
        assert capsys.readouterr().out.strip() == "1"


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
        assert not any("evolution.frame" in ln or "output.format" in ln for ln in header)
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


class TestCsvWriter:
    def test_matches_per_cell_format(self, tmp_path):
        """One-shot formatting writes the bytes of the per-row
        ",".join(f"{v:.12g}") it replaced."""
        values = [0.0, -0.0, 1.0, -2.5, 1e-5, -1e-5, 1.23456789012345e-7, 1e12,
                  -1e12, 123456789012.5, 1e15, 6.02214076e23, np.pi, -np.e,
                  np.float64(0.994743715588123), np.float64(-1e-300), np.inf, np.nan]
        rows = [(i, v, -i) for i, v in enumerate(values)]
        rows += [(10**12, 7, -3), (np.int64(42), 0.5, 2**53)]
        path = tmp_path / "w.csv"
        _write_csv(path, ["a = 1", "b"], "i,v,j", rows)
        oracle = "# a = 1\n# b\ni,v,j\n" + "".join(
            ",".join(f"{v:.12g}" for v in row) + "\n" for row in rows)
        assert path.read_bytes() == oracle.encode("utf-8")


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

    def test_cat_metric_requires_single_qubit(self, tmp_path, capsys):
        code = main(
            ["sweep", "--metric", "cat-fidelity", "--fock-dim", "8",
             "--axis", "system.g", "0.1", "0.2", "2", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "n_qubits" in capsys.readouterr().err
