"""Repository benchmark: one command, every workload, every metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``BENCHMARK.json`` at the root names the
workloads and the metrics; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` carrying the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
Lines before it are a human-readable account of the same run.

A traced run measures the workload untraced for half of its time, then
installs the timing wrappers of :mod:`spans` and measures it again; the
per-layer metrics come from both halves, the difference between them is
the tracing overhead, and the spans are written as JSON lines under
``perfbench/out/``.  Each workload lists the per-layer metrics it measures
(``LAYER_METRICS``); the others report 0, and a listed metric that was not
measured fails the run.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import OUT_DIR, ROOT, emit, require_program

WORKLOADS = ("synth-suite", "synth-enum", "keyed-wide", "keyed-hot")


def _declared(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_program()
    trace = bool(args.trace)
    declared = _declared(trace)

    if args.workload.startswith("synth-"):
        import synth as workload
    elif args.workload == "keyed-wide":
        import keyed as workload
    else:
        import serve as workload
    outcome, tracer = workload.run(args.workload, args.seed, args.seconds, trace)

    for name, (value, unit) in outcome.metrics.items():
        if name in declared and declared[name] != unit:
            raise RuntimeError(f"{name}: measured in {unit}, declared in {declared[name]}")
    if trace:
        measured = workload.LAYER_METRICS[args.workload]
        undeclared = sorted(measured - declared.keys())
        if undeclared:
            raise RuntimeError(f"{args.workload}: metrics not in BENCHMARK.json: {undeclared}")
        for name, unit in declared.items():
            if name not in measured:
                if name in outcome.metrics:
                    raise RuntimeError(f"{args.workload}: {name} is measured but not listed")
                outcome.metrics[name] = (0.0, unit)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(path)
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    emit(outcome, list(declared))
    return 0


if __name__ == "__main__":
    sys.exit(main())
