"""Same-machine A/B of the repository benchmark: a base checkout against a
head checkout.

    python3 .github/scripts/perfbench_ab.py --base ../base --head . \
        [--workload NAME]... [--out ab.json]

For every workload that both checkouts' ``BENCHMARK.json`` declare (or
each ``--workload``), the script runs ``python3 perfbench/run.py
--workload W --seed S --seconds T`` ``RUNS`` times in each checkout, with
``T`` the ``run_seconds`` of the head's ``BENCHMARK.json``.  The
two sides of a pair share the seed, and the side that goes first
alternates from pair to pair, so slow spells of the host fall on both.

It exits 1 when, on any workload, the head's median of an end-to-end metric
is worse than the base's median by more than that metric's ``bound`` in
the head's ``BENCHMARK.json`` (a fraction of the base median), or when the
head fails a larger share of its operations than the base.  It exits 2
when a run produces no result.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: Runs per side and workload: enough for a median that one slow spell of
#: the host cannot move.
RUNS = 5
#: Seed of the first pair; pair ``i`` uses ``FIRST_SEED + i``.
FIRST_SEED = 1


def declared(checkout: Path) -> dict:
    return json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run; its result object (the last line of its output)."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(command[1:])} exited "
                           f"{proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def worse_by(base: float, head: float, better: str) -> float:
    """How much worse ``head`` is than ``base``, as a fraction of ``base``
    (negative when it is better)."""
    if base <= 0:
        return 0.0 if head == base else float("inf")
    change = (head - base) / base
    return change if better == "lower" else -change


def failed_share(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 1.0


def compare(base_runs: list[dict], head_runs: list[dict], end_to_end: list[dict]) -> list[dict]:
    """One verdict row per end-to-end metric, plus one for the failed share."""
    rows = []
    for metric in end_to_end:
        name = metric["name"]
        base = statistics.median(run["metrics"][name]["value"] for run in base_runs)
        head = statistics.median(run["metrics"][name]["value"] for run in head_runs)
        worse = worse_by(base, head, metric["better"])
        rows.append({"metric": name, "base": base, "head": head, "worse_by": worse,
                     "bound": metric["bound"], "ok": worse <= metric["bound"]})
    base_share, head_share = failed_share(base_runs), failed_share(head_runs)
    rows.append({"metric": "failed_share", "base": base_share, "head": head_share,
                 "worse_by": head_share - base_share, "bound": 0.0,
                 "ok": head_share <= base_share})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path, help="base checkout")
    parser.add_argument("--head", required=True, type=Path, help="head checkout")
    parser.add_argument("--workload", action="append",
                        help="workload to compare (repeatable; default: every "
                             "workload both checkouts declare)")
    parser.add_argument("--out", type=Path, help="also write the runs and verdicts as JSON")
    args = parser.parse_args(argv)

    spec = declared(args.head)
    base_names = {w["name"] for w in declared(args.base)["workloads"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"] if w["name"] in base_names]
    sides = {"base": args.base, "head": args.head}
    report, failed = {}, False
    try:
        for workload in workloads:
            runs: dict[str, list[dict]] = {"base": [], "head": []}
            for i in range(RUNS):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for side in order:
                    runs[side].append(run_once(sides[side], workload, FIRST_SEED + i,
                                               spec["run_seconds"]))
            rows = compare(runs["base"], runs["head"], spec["end_to_end"])
            report[workload] = {"runs": runs, "verdicts": rows}
            for row in rows:
                failed |= not row["ok"]
                print(f"{workload:<12} {row['metric']:<13} base {row['base']:<10.4g} "
                      f"head {row['head']:<10.4g} worse by {row['worse_by']:+.3f} "
                      f"(bound {row['bound']:g}) {'ok' if row['ok'] else 'REGRESSION'}",
                      flush=True)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.out:
            args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print("perfbench A/B: " + ("REGRESSION" if failed else "OK"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
