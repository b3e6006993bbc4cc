"""Command-line driver: configs, reports, determinism, exit codes."""

import json

import pytest

from minkabs.cli import ConfigError, DEFAULTS, cmd_demo_causality, load_config, main
from minkabs.report import SWEEP_CSV_HEADER, RunReport, sweep_csv
from minkabs.quantum.verify import CheckResult


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

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(ConfigError):
            load_config(str(path), {})


class TestExitCodes:
    def test_power_of_two_rule(self, capsys):
        assert main(["verify-geometry", "--lattice", "7"]) == 2
        assert "power of two" in capsys.readouterr().err

    def test_csv_only_for_demo(self, capsys):
        assert main(["verify-geometry", "--csv"]) == 2

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

        state._PLAN_CACHE.clear()
        path = small_config(tmp_path)
        assert main(["verify-covariance", "--config", path]) == 0
        first = capsys.readouterr().out
        assert state._PLAN_CACHE
        assert main(["verify-covariance", "--config", path]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_timings_zeroed_by_default(self, capsys):
        main(["verify-geometry", "--seed", "11"])
        report = json.loads(capsys.readouterr().out)
        assert all(c["seconds"] == 0.0 for c in report["checks"])


@pytest.fixture(scope="module")
def report():
    config = load_config(None, {"N": 16})
    config["delta_t_sweep"] = [0.5, 1.0]
    config["rapidity_sweep"] = [0.0, 0.1]
    return cmd_demo_causality(config)


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


class TestReport:
    def test_pass_flag_tracks_tolerance(self):
        report = RunReport("demo", {})
        report.add(
            CheckResult("ok", 1e-12, 1e-10, True, 8, 0.1, {"bound": "upper"})
        )
        report.add(
            CheckResult("bad", 1.0, 1e-10, False, 8, 0.1, {"bound": "upper"})
        )
        assert not report.all_passed()
        data = report.to_dict()
        assert data["checks"][0]["passed"] and not data["checks"][1]["passed"]

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify-geometry", "--seed", "3", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["suite"] == "verify-geometry"
        assert capsys.readouterr().out == ""
