"""The leaf comparison behind ``tools/report_diff.py``."""

import importlib.util
import subprocess
from itertools import product
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"
_spec = importlib.util.spec_from_file_location("report_diff", _TOOL)
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)

MISSING = report_diff.MISSING


def test_changed_leaf():
    old = {"config": {"N": 32, "seed": 42}}
    new = {"config": {"N": 32, "seed": 43}}
    assert list(report_diff.differences(old, new)) == [(".config.seed", 42, 43)]


def test_value_on_one_side_is_missing_on_the_other():
    old = {"tables": {"rows": [1, 2]}, "gone": True}
    new = {"tables": {"rows": [1, 2, 3]}, "added": 0.5}
    assert list(report_diff.differences(old, new)) == [
        (".tables.rows[2]", MISSING, 3),
        (".gone", True, MISSING),
        (".added", MISSING, 0.5),
    ]


def test_list_items_addressed_by_name():
    old = {"checks": [{"name": "x", "residual": 1.0}, {"name": "y", "residual": 2.0}]}
    new = {"checks": [{"name": "x", "residual": 1.0}, {"name": "y", "residual": 2.5}]}
    assert list(report_diff.differences(old, new)) == [(".checks[y].residual", 2.0, 2.5)]


def test_csv_lines_compared_in_order():
    old = "h\n1,0.5\n"
    new = "h\n1,0.25\n2,1.0\n"
    assert list(report_diff.line_differences(old, new)) == [
        ("line 2", "1,0.5", "1,0.25"),
        ("line 3", MISSING, "2,1.0"),
    ]


def test_stderr_lines_printed_with_their_change():
    old = "PASS a: residual 0.000e+00 <= 1.000e-10\nPASS b: residual 8.146e-02 >= 1.000e-04\n"
    new = "PASS a: residual 0.000e+00 <= 1.000e-10\nFAIL b: residual 8.201e-05 >= 1.000e-04\n"
    assert list(report_diff.line_differences(old, new, "stderr ")) == [
        (
            "stderr line 2",
            "PASS b: residual 8.146e-02 >= 1.000e-04",
            "FAIL b: residual 8.201e-05 >= 1.000e-04",
        )
    ]


def test_thread_environments(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.setenv("MINKABS_THREADS", "3")
    unset = report_diff.environment(Path("/src"), "unset")
    pinned = report_diff.environment(Path("/src"), "1")
    assert unset["PYTHONPATH"] == pinned["PYTHONPATH"] == str(Path("/src"))
    assert not set(report_diff.THREAD_VARIABLES) & set(unset)
    assert all(pinned[k] == "1" for k in report_diff.THREAD_VARIABLES)


def test_thread_agreement_per_command():
    runs = product(report_diff.THREADS, report_diff.COMMANDS)
    stdout = dict.fromkeys(runs, "a")
    stdout["1", ("demo-causality",)] = "b"
    assert report_diff.thread_agreement(stdout) == [
        "threads agree verify-geometry",
        "threads agree verify-geometry --seed 5",
        "threads agree verify-covariance",
        "threads differ demo-causality",
        "threads agree demo-causality --csv",
    ]


def test_digests_exit_1_when_a_command_fails(monkeypatch, capsys):
    # one failing run of ten sets the status; the thread-agreement lines do not
    def run(src, command, threads):
        code = 1 if (threads, command) == ("1", ("demo-causality",)) else 0
        return subprocess.CompletedProcess([], code, stdout=b"", stderr=b"")

    monkeypatch.setattr(report_diff, "run", run)
    assert report_diff.digests(Path("src")) == 1
    assert capsys.readouterr().out.count("threads agree") == len(report_diff.COMMANDS)
