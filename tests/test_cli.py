"""Command-line driver: configs, reports, determinism, exit codes."""

import argparse
import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from minkabs.cli import (
    COMMANDS,
    ConfigError,
    DEFAULTS,
    _parser,
    build_model,
    cmd_demo_causality,
    load_config,
    main,
)
from minkabs import report as report_module
from minkabs.report import SWEEP_CSV_HEADER, CheckResult, Checks, RunReport, sweep_csv


def small_config(tmp_path, **extra):
    path = tmp_path / "config.json"
    payload = {"N": 16, "states": 6, "translations": 1, "convergence_seeds": [5]}
    payload.update(extra)
    path.write_text(json.dumps(payload))
    return str(path)


class TestConfig:
    def test_defaults(self):
        config = load_config(None, {})
        assert config == DEFAULTS

    def test_file_and_flag_override(self, tmp_path):
        path = small_config(tmp_path, seed=7)
        config = load_config(path, {"seed": 9, "N": None})
        assert config["seed"] == 9  # flag wins
        assert config["N"] == 16

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"bogus": 1}')
        with pytest.raises(ConfigError):
            load_config(str(path), {})

    def test_pad_is_an_unknown_key(self, tmp_path, capsys):
        # the spline oversampling is a kernel constant, no longer a config key
        assert main(["verify-geometry", "--config", small_config(tmp_path, pad=2)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "unknown config keys: pad" in out.err

    def test_readme_table_lists_the_defaults(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        keys = re.findall(r"^\| `(\w+)` +\|", readme, flags=re.MULTILINE)
        assert len(keys) == len(set(keys))
        assert set(keys) == set(DEFAULTS)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(ConfigError):
            load_config(str(path), {})


class TestExitCodes:
    def test_power_of_two_rule(self, capsys):
        assert main(["verify-geometry", "--lattice", "7"]) == 2
        assert "power of two" in capsys.readouterr().err

    def test_lattice_beyond_the_float_range(self, capsys):
        # an int too large for a float is refused as a config, not a traceback
        assert main(["verify-geometry", "--lattice", "1" + "0" * 400]) == 2
        assert capsys.readouterr().err == "configuration error: N must hold finite float values\n"

    def test_lattice_beyond_numpy_array_size(self, capsys):
        # numpy cannot index an N^3 field of 2**60 points per axis: a config error, no traceback
        assert main(["verify-geometry", "--lattice", str(2**60)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: lattice size too large")
        assert err.count("\n") == 1  # one line, no traceback

    def test_csv_only_for_demo(self, capsys):
        # argparse refuses the flag on the other commands, with exit 2
        with pytest.raises(SystemExit) as exc:
            main(["verify-geometry", "--csv"])
        assert exc.value.code == 2
        assert "--csv" in capsys.readouterr().err

    def test_subcommands_are_the_command_table(self):
        sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(COMMANDS)

    def test_geometry_all_pass(self, capsys):
        assert main(["verify-geometry", "--seed", "3"]) == 0
        out = capsys.readouterr()
        report = json.loads(out.out)
        assert report["passed"] is True
        assert all(c["passed"] for c in report["checks"])


class TestDeterminism:
    def test_geometry_report_byte_identical(self, capsys):
        main(["verify-geometry", "--seed", "11"])
        first = capsys.readouterr().out
        main(["verify-geometry", "--seed", "11"])
        second = capsys.readouterr().out
        assert first == second

    def test_covariance_cold_and_warm_plan_cache(self, tmp_path, capsys):
        # the first run builds every velocity-change plan, the second
        # reuses the cached ones; the reports must not differ
        from minkabs.quantum import state

        state._plan_of.cache_clear()
        path = small_config(tmp_path)
        assert main(["verify-covariance", "--config", path]) == 0
        first = capsys.readouterr().out
        assert state._plan_of.cache_info().currsize
        assert main(["verify-covariance", "--config", path]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_timings_zeroed_by_default(self, capsys):
        main(["verify-geometry", "--seed", "11"])
        report = json.loads(capsys.readouterr().out)
        assert all(c["seconds"] == 0.0 for c in report["checks"])


def sweep_config():
    config = load_config(None, {"N": 16})
    config["delta_t_sweep"] = [0.5, 1.0]
    config["rapidity_sweep"] = [0.0, 0.1]
    return config


@pytest.fixture(scope="module")
def report():
    return cmd_demo_causality(sweep_config())


class TestDemoCausality:
    def test_row_count_matches_sweep(self, report):
        # one zero-interval row plus the positive-interval grid
        assert len(report.tables["leakage_sweep"]) == 1 + 2 * 2

    def test_zero_row_is_clean(self, report):
        rows = report.tables["leakage_sweep"]
        assert rows[0]["delta_t_sec"] == 0.0
        assert rows[0]["leakage"] <= 1e-10

    def test_positive_rows_leak(self, report):
        for row in report.tables["leakage_sweep"][1:]:
            assert row["leakage"] > 1e-6

    def test_csv_shape(self, report):
        text = sweep_csv(report.tables["leakage_sweep"])
        lines = text.strip().split("\n")
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 1 + len(report.tables["leakage_sweep"])

    def test_all_checks_pass(self, report):
        assert report.all_passed()

    def test_each_trial_runs_once_and_matches_the_per_trial_loop(self, report, monkeypatch):
        from minkabs.quantum import verify as V

        experiment, localized = V.causality_experiment, V.localized_state
        sweep_of = V.causality_leakages
        states, shadows = [], []

        def counted_state(cfg):
            states.append(cfg.N)
            return localized(cfg)

        def counted(cfg, phi, trials):
            shadows.extend(trials)
            return sweep_of(cfg, phi, trials)

        monkeypatch.setattr(V, "localized_state", counted_state)
        monkeypatch.setattr(V, "causality_leakages", counted)
        config = sweep_config()
        again = cmd_demo_causality(config)
        # one state; one sweep of the zero interval, 2 x 2 sweep trials and the
        # 0.4-spacing margin
        assert states == [16]
        assert len(shadows) == 6 and len({id(shadow) for shadow in shadows}) == 6

        # reference: each trial with its own state and shadow, one per table
        # row, then both margin trials
        cfg = build_model(config)
        chis = config["rapidity_sweep"]
        observer = {c: V.boosted_velocity(float(c)) if c else None for c in chis}
        sweep = [(float(dt), c) for dt in config["delta_t_sweep"] for c in chis]

        def trial(**kwargs):
            return experiment(cfg, localized(cfg), V.causal_shadow(cfg, **kwargs))

        rows = [
            {
                "delta_t_sec": dt,
                "rapidity": float(chi),
                "leakage": trial(delta_t=dt, u2=observer[chi]),
                "N": 16,
            }
            for dt, chi in [(0.0, 0.0), *sweep]
        ]
        m1, m2 = (trial(delta_t=1.0, margin=m * cfg.spacing.value) for m in (0.2, 0.4))
        want = {
            "leakage/zero-interval": rows[0]["leakage"],
            "leakage/strictly-positive": min(r["leakage"] for r in rows[1:] if not r["rapidity"]),
            "leakage/strictly-positive-boosted": min(r["leakage"] for r in rows if r["rapidity"]),
            "leakage/margin-doubling-stable": abs(m1 - m2),
        }
        for got in (again, report):
            assert got.tables["leakage_sweep"] == rows
            assert {c.name: c.residual for c in got.checks if c.name in want} == want


class TestCausalitySweep:
    def test_one_velocity_change_per_sweep_rapidity(self, monkeypatch):
        from minkabs.quantum import state

        calls, boost = [], state._boost_array

        def counted(cfg, arr, L):
            calls.append(len(arr))
            return boost(cfg, arr, L)

        monkeypatch.setattr(state, "_boost_array", counted)
        assert cmd_demo_causality(load_config(None, {})).all_passed()
        assert calls == [1, 1]  # rapidities 0.1 and 0.2, one state each

    def test_rows_match_per_trial_experiments_in_any_order(self):
        from minkabs.quantum import verify as V

        config = load_config(None, {"N": 32})
        config["delta_t_sweep"] = [2.0, 0.5, 1.0]
        config["rapidity_sweep"] = [0.0, 0.2, 0.1]
        report = cmd_demo_causality(config)
        cfg = build_model(config)
        phi = V.localized_state(cfg)
        rows = report.tables["leakage_sweep"]
        assert len(rows) == 10
        for row in rows:
            u2 = V.boosted_velocity(row["rapidity"]) if row["rapidity"] else None
            shadow = V.causal_shadow(cfg, delta_t=row["delta_t_sec"], u2=u2)
            assert row["leakage"].hex() == V.causality_experiment(cfg, phi, shadow).hex()
        wide = V.causal_shadow(cfg, delta_t=2.0, margin=0.4 * cfg.spacing.value)
        margin = abs(rows[1]["leakage"] - V.causality_experiment(cfg, phi, wide))
        residuals = {c.name: c.residual for c in report.checks}
        assert residuals["leakage/margin-doubling-stable"].hex() == margin.hex()


class TestReport:
    def test_pass_flag_tracks_tolerance(self):
        report = RunReport("demo", {})
        report.add(
            CheckResult("ok", 1e-12, 1e-10, True, 8, 0.1)
        )
        report.add(
            CheckResult("bad", 1.0, 1e-10, False, 8, 0.1)
        )
        assert not report.all_passed()
        data = report.to_dict()
        assert data["checks"][0]["passed"] and not data["checks"][1]["passed"]

    def test_timed_check_records_bound_and_details(self):
        check = Checks(8)
        check("witness", 0.5, 0.1, below=False, seeds=3)
        report = RunReport("demo", {}, check)
        data = report.to_dict()["checks"][0]
        assert data["passed"] and data["bound"] == "lower"
        assert data["details"] == {"seeds": 3}
        assert report.summary_lines() == ["PASS witness: residual 5.000e-01 >= 1.000e-01"]

    def test_each_check_timed_since_the_previous_record(self, monkeypatch):
        clock = iter([10.0, 10.5, 12.0, 12.25])  # construction, then one tick per record
        monkeypatch.setattr(report_module, "time", SimpleNamespace(perf_counter=clock.__next__))
        check = Checks(8)
        check("a", 1e-12, 1e-10)
        check("b", 0.05, 0.1, below=False, seeds=3)
        check("c", np.float64(2.0), 1)
        assert [c.seconds for c in check] == [0.5, 1.5, 0.25]
        report = RunReport("demo", {}, check)
        rows = report.to_dict(include_timings=True)["checks"]
        assert [(r["seconds"], r["N"], r["bound"], r["passed"]) for r in rows] == [
            (0.5, 8, "upper", True),
            (1.5, 8, "lower", False),
            (0.25, 8, "upper", False),
        ]
        assert [r["details"] for r in rows] == [{}, {"seeds": 3}, {}]
        assert type(rows[2]["residual"]) is float and type(rows[2]["tolerance"]) is float
        assert [r["seconds"] for r in report.to_dict()["checks"]] == [0.0] * 3
        assert report.summary_lines() == [
            "PASS a: residual 1.000e-12 <= 1.000e-10",
            "FAIL b: residual 5.000e-02 >= 1.000e-01",
            "FAIL c: residual 2.000e+00 <= 1.000e+00",
        ]

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify-geometry", "--seed", "3", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["suite"] == "verify-geometry"
        assert capsys.readouterr().out == ""

    def test_unwritable_out_file(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        assert main(["verify-geometry", "--seed", "3", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cannot write report: ")
        assert not out.parent.exists()


class TestConfigValidation:
    # each config was accepted before any check and then ended in a
    # traceback; it must be a configuration error (exit 2) up front
    @pytest.mark.parametrize(
        "command, extra",
        [
            ("demo-causality", {"spacing_sec": "abc"}),
            ("demo-causality", {"rapidity_sweep": [0.1, 0.2]}),
            ("demo-causality", {"rapidity_sweep": []}),
            ("demo-causality", {"delta_t_sweep": []}),
            ("demo-causality", {"delta_t_sweep": [-0.5, 1.0]}),
            ("demo-causality", {"rapidity_sweep": [0.0, 0.5]}),
            ("verify-covariance", {"convergence_seeds": []}),
            ("verify-covariance", {"rapidity": 0.5}),
            ("verify-geometry", {"seed": -1}),
            ("verify-covariance", {"convergence_seeds": [-1]}),
            ("verify-covariance", {"states": 0}),
            ("verify-covariance", {"N": 8}),
            ("demo-causality", {"N": 8}),
            ("demo-causality", {}),
            ("verify-covariance", {"spacing_sec": 0.3}),
            ("demo-causality", {"delta_t_sweep": [1e-9]}),
            ("verify-geometry", {"spacing_sec": 1e-300}),
            ("verify-geometry", {"witness_rapidity": 40}),
            ("verify-geometry", {"witness_rapidity": 1000}),
            ("verify-geometry", {"seed": 5.5}),
            ("verify-geometry", {"convergence_seeds": [42, 43.5]}),
            ("verify-geometry", {"N": 32.5}),
            ("verify-geometry", {"translations": -3}),
            ("verify-geometry", {"mass_inv_sec": 1e-170}),
            ("verify-geometry", {"mass_inv_sec": 3e-162}),
            ("verify-geometry", {"N": 1048576}),
            ("verify-covariance", {"states": 1000000000}),
            ("verify-covariance", {"rapidity": 0.0}),
            ("verify-covariance", {"rapidity": 1e-300}),
            ("verify-covariance", {"rapidity": 1e-15}),
            ("demo-causality", {"delta_t_sweep": [0.0], "rapidity_sweep": [0.0]}),
            ("verify-geometry", {"seed": 10**400}),
            ("verify-covariance", {"convergence_seeds": [5, 10**400]}),
        ],
        ids=[
            "non-numeric",
            "sweep-without-rest",
            "empty-rapidity-sweep",
            "empty-delta-t-sweep",
            "negative-delta-t",
            "sweep-over-cap",
            "empty-convergence-seeds",
            "rapidity-over-cap",
            "negative-seed",
            "negative-convergence-seed",
            "zero-states",
            "covariance-packet-wider-than-box",
            "causality-packet-wider-than-box",
            "causality-shadow-wider-than-box",
            "witness-packet-under-three-spacings",
            "boosted-instant-not-in-the-future",
            "spacing-energies-overflow",
            "witness-velocity-not-timelike",
            "witness-velocity-overflows",
            "fractional-seed",
            "fractional-convergence-seed",
            "fractional-lattice-size",
            "negative-translations",
            "mass-square-underflows",
            "mass-square-subnormal",
            "lattice-beyond-memory",
            "states-beyond-memory",
            "rapidity-zero",
            "rapidity-1e-300",
            "rapidity-1e-15",
            "zero-delta-t",
            "seed-beyond-float-range",
            "convergence-seed-beyond-float-range",
        ],
    )
    def test_rejected_with_exit_2(self, tmp_path, capsys, command, extra):
        path = small_config(tmp_path, **extra)
        assert main([command, "--config", path]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("configuration error: ")

    def test_witness_widths_are_the_drivers_widths(self, tmp_path, capsys, monkeypatch):
        # the fit check reads the width the time-variance witness packet
        # uses, so widening it past a quarter box (1 s at N=16) is exit 2
        from minkabs.quantum import verify

        monkeypatch.setattr(verify, "WIDE_PACKET_WIDTH", 1.25)
        assert main(["verify-covariance", "--config", small_config(tmp_path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("configuration error: packet too wide")

    def test_smallest_label_moving_rapidity_runs(self, tmp_path, capsys):
        # 1e-12 moves labels by more than the kernel tolerance at N=16, so
        # the study runs; its residuals sit at rounding level and the ratio
        # check fails honestly
        path = small_config(tmp_path, rapidity=1e-12, states=1)
        assert main(["verify-covariance", "--config", path]) == 1
        out = capsys.readouterr()
        checks = json.loads(out.out)["checks"]
        failed = {c["name"] for c in checks if not c["passed"]}
        # the boost barely moves the fixed label either, so its witness fails too
        assert failed == {"factorization-convergence-ratio", "fixed-label-not-a-vector"}
        for name in failed:
            assert f"FAIL {name}" in out.err

    def test_integral_floats_are_integers(self):
        # JSON 32.0 names the same lattice as 32; only a fraction is refused
        config = load_config(None, {})
        config.update(N=32.0, seed=5.0, convergence_seeds=[42.0, 43])
        assert build_model(config).N == 32

    def test_negative_rapidity_is_capped(self):
        # a negative rapidity boosts along the opposite axis direction
        config = load_config(None, {})
        config["rapidity_sweep"] = [0.0, -0.3]
        with pytest.raises(ConfigError, match="band-limit cap"):
            build_model(config)


class TestDemoCausalityCli:
    def test_report_does_not_depend_on_the_seed(self, capsys):
        # demo-causality draws nothing at random; only the echoed config names the seed
        reports = []
        for seed in ("42", "5"):
            assert main(["demo-causality", "--seed", seed]) == 0
            data = json.loads(capsys.readouterr().out)
            reports.append((data["checks"], data["tables"]))
        assert reports[0] == reports[1]

    def test_csv_through_main_is_deterministic(self, tmp_path, capsys):
        # the sweep of the report fixture, through the argument parser
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"delta_t_sweep": [0.5, 1.0], "rapidity_sweep": [0.0, 0.1]}))
        argv = ["demo-causality", "--config", str(path), "--lattice", "16", "--csv"]
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0].startswith(SWEEP_CSV_HEADER + "\n")
        assert len(outputs[0].strip().split("\n")) == 1 + 1 + 2 * 2
        assert outputs[0] == outputs[1]
