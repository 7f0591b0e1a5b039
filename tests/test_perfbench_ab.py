"""Tests for the A/B comparison script of the CI ``perfbench-ab`` job
(``.github/scripts/perfbench_ab.py``), on stand-in checkouts whose
``perfbench/run.py`` prints a fixed result line."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "scripts" / "perfbench_ab.py"
_spec = importlib.util.spec_from_file_location("perfbench_ab", SCRIPT)
perfbench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench_ab)

END_TO_END = [
    {"name": "work_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "eps", "unit": "1/s", "better": "higher", "bound": 0.1},
]


def result(work_s, eps=100.0, failed=0):
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"work_s": {"value": work_s, "unit": "s"},
                        "eps": {"value": eps, "unit": "1/s"}}}


def verdicts(base_runs, head_runs):
    return {row["metric"]: row["ok"]
            for row in perfbench_ab.compare(base_runs, head_runs, END_TO_END)}


def test_medians_are_compared_against_each_bound():
    base = [result(1.0), result(1.0), result(9.0)]
    assert verdicts(base, [result(1.1)] * 3) == {"work_s": True, "eps": True,
                                                 "failed_share": True}
    assert not verdicts(base, [result(1.3)] * 3)["work_s"]
    assert not verdicts(base, [result(1.0, eps=85.0)] * 3)["eps"]
    assert verdicts(base, [result(1.0, eps=500.0)] * 3)["eps"]


def test_a_larger_failed_share_is_a_regression():
    assert not verdicts([result(1.0)] * 3, [result(1.0, failed=1)] * 3)["failed_share"]


def checkout(root, work_s, log):
    """A stand-in checkout whose benchmark reports ``work_s`` and appends
    its side and seed to ``log``."""
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 24, "workloads": [{"name": "w"}], "end_to_end": END_TO_END[:1]}))
    (root / "perfbench" / "run.py").write_text(
        "import json, sys\n"
        f"open({str(log)!r}, 'a').write({root.name!r} + ' ' + sys.argv[sys.argv.index('--seed') + 1] + '\\n')\n"
        f"print({json.dumps(json.dumps(result(work_s)))})\n")
    return root


@pytest.mark.parametrize("head_work_s, code", [(1.1, 0), (1.3, 1)])
def test_runs_alternate_and_the_exit_code_follows_the_bound(tmp_path, head_work_s, code):
    log = tmp_path / "log"
    base = checkout(tmp_path / "base", 1.0, log)
    head = checkout(tmp_path / "head", head_work_s, log)
    out = tmp_path / "ab.json"
    assert perfbench_ab.main(["--base", str(base), "--head", str(head),
                              "--out", str(out)]) == code
    assert log.read_text().split("\n")[:6] == ["base 1", "head 1", "head 2", "base 2",
                                               "base 3", "head 3"]
    assert len(json.loads(out.read_text())["w"]["runs"]["head"]) == 5


def test_a_run_without_result_is_an_error(tmp_path):
    base = checkout(tmp_path / "base", 1.0, tmp_path / "log")
    head = tmp_path / "head"
    (head / "perfbench").mkdir(parents=True)
    (head / "BENCHMARK.json").write_text((base / "BENCHMARK.json").read_text())
    (head / "perfbench" / "run.py").write_text("raise SystemExit(2)\n")
    assert perfbench_ab.main(["--base", str(base), "--head", str(head)]) == 2
