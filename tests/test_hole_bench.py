"""Tests for ``repro bench holes``: the report provenance block and the CLI
contract (exit 0 on success, 1 on a report mismatch or a missed speedup
gate, 2 on usage errors).

The CLI tests replace ``run_hole_benchmark`` with a stub that returns a
fixed report, so they check the verb's exit codes and output without
running any synthesis."""

import json
import subprocess
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.evaluation import bench_metadata, hole_bench
from repro.evaluation.export import git_commit
from repro.evaluation.hole_bench import ReportMismatch


class TestMetadata:
    def test_bench_metadata_shape(self):
        meta = bench_metadata()
        assert set(meta) == {"git_commit", "timestamp", "clock"}
        assert meta["timestamp"].endswith("Z")
        assert "monotonic" in meta["clock"]

    def test_git_commit_matches_rev_parse_in_checkout(self):
        expected = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if expected.returncode != 0:
            pytest.skip("not running inside a git checkout")
        assert git_commit() == expected.stdout.strip()

    def test_git_commit_unknown_outside_checkout(self, tmp_path):
        assert git_commit(cwd=str(tmp_path)) == "unknown"


def fixed_report(speedup=2.0, cpu_count=4, hole_workers=2, repeats=3):
    return {
        "format": hole_bench.BENCH_FORMAT,
        "version": hole_bench.BENCH_FORMAT_VERSION,
        "meta": {"git_commit": "a" * 40, "timestamp": "2026-01-01T00:00:00Z"},
        "hole_workers": hole_workers,
        "cpu_count": cpu_count,
        "repeats": repeats,
        "benchmarks": {
            "stress_moments": {
                "holes": 2,
                "success": True,
                "sequential_s": 1.0,
                "parallel_s": 1.0 / speedup,
                "speedup": speedup,
                "raw": {"sequential_s": [1.0], "parallel_s": [1.0 / speedup]},
            }
        },
    }


@pytest.fixture
def stub_bench(monkeypatch):
    """Replace ``run_hole_benchmark`` with a stub that records its calls
    and returns ``stub.report``, or raises ``stub.error`` when it is set."""
    stub = SimpleNamespace(calls=[], report=fixed_report(), error=None)

    def fake(names=None, hole_workers=2, timeout_s=60.0, repeats=2):
        stub.calls.append(
            {"names": names, "hole_workers": hole_workers,
             "timeout_s": timeout_s, "repeats": repeats}
        )
        if stub.error is not None:
            raise stub.error
        return stub.report

    monkeypatch.setattr(hole_bench, "run_hole_benchmark", fake)
    return stub


class TestBenchHolesCli:
    def test_success_passes_arguments_through(self, stub_bench, capsys):
        code = main([
            "bench", "holes", "--task", "stress_moments,skewness",
            "--hole-workers", "4", "--timeout", "30", "--repeats", "5",
        ])
        assert code == 0
        assert stub_bench.calls == [{
            "names": ["stress_moments", "skewness"], "hole_workers": 4,
            "timeout_s": 30.0, "repeats": 5,
        }]
        assert "stress_moments" in capsys.readouterr().out

    def test_default_compares_against_two_workers(self, stub_bench, monkeypatch):
        monkeypatch.setenv("REPRO_HOLE_WORKERS", "3")
        assert main(["bench", "holes"]) == 0
        assert stub_bench.calls[0]["hole_workers"] == 2

    def test_one_hole_worker_is_a_usage_error(self, stub_bench, capsys):
        assert main(["bench", "holes", "--hole-workers", "1"]) == 2
        assert "--hole-workers >= 2" in capsys.readouterr().err
        assert stub_bench.calls == []

    def test_unknown_task_is_a_usage_error(self, capsys):
        # The real benchmark: names are resolved before any synthesis runs.
        assert main(["bench", "holes", "--task", "no_such_task"]) == 2
        assert "no_such_task" in capsys.readouterr().err

    def test_report_mismatch_exits_one(self, stub_bench, tmp_path, capsys):
        stub_bench.error = ReportMismatch("stress_moments: reports differ")
        out = tmp_path / "holes.json"
        assert main(["bench", "holes", "--out", str(out)]) == 1
        assert "reports diverge" in capsys.readouterr().err
        assert not out.exists()

    def test_speedup_gate_passes(self, stub_bench, capsys):
        stub_bench.report = fixed_report(speedup=2.0, cpu_count=4)
        assert main(["bench", "holes", "--assert-speedup", "1.5"]) == 0
        assert ">= 1.5x" in capsys.readouterr().out

    def test_speedup_gate_fails_below_threshold(self, stub_bench, capsys):
        stub_bench.report = fixed_report(speedup=1.2, cpu_count=4)
        assert main(["bench", "holes", "--assert-speedup", "1.5"]) == 1
        assert "below the 1.5x gate" in capsys.readouterr().err

    def test_speedup_gate_skipped_on_one_core(self, stub_bench, capsys):
        stub_bench.report = fixed_report(speedup=0.9, cpu_count=1)
        assert main(["bench", "holes", "--assert-speedup", "1.5"]) == 0
        assert "gate skipped" in capsys.readouterr().err

    def test_out_writes_the_report(self, stub_bench, tmp_path, capsys):
        out = tmp_path / "BENCH_holes.json"
        assert main(["bench", "holes", "--out", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8")) == stub_bench.report
        assert f"wrote {out}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "env",
        [("REPRO_BENCH_WORKERS", "abc"), ("REPRO_HOLE_WORKERS", "0")],
        ids=["bench-workers-abc", "hole-workers-0"],
    )
    def test_ignores_suite_worker_env_defaults(self, stub_bench, monkeypatch, env):
        # bench holes reads neither variable, so a malformed value must not
        # make it exit 2.
        monkeypatch.setenv(*env)
        assert main(["bench", "holes"]) == 0
        assert len(stub_bench.calls) == 1

    def test_bad_timeout_is_still_a_usage_error(self, stub_bench, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_TIMEOUT", "soon")
        assert main(["bench", "holes"]) == 2
        assert main(["bench", "holes", "--timeout", "nan"]) == 2
        assert stub_bench.calls == []
