"""Compile once, deploy anywhere: scheme files, checkpoints, and restarts.

The production lifecycle this repo is built around, end to end:

1. **compile** a batch function — served from the persistent scheme store on
   every run after the first (`repro compile` does the same on the CLI);
2. **save** the scheme as versioned JSON and **load** it back, as a separate
   deployment process would (`repro run <scheme.json> --source ...`);
3. stream through an operator, **checkpoint** mid-stream, "crash", and
   **restore** in a fresh operator — finishing with bit-for-bit the same
   results as the uninterrupted run;
4. the same restart story for a per-key partitioned `KeyedOperator`.

Execution backend note: operators run the scheme's *compiled* step (a
native Python closure generated by `repro.ir.compile`, 5-25x faster per
element than tree-walking) unless built with `backend="interpreted"`
(`--backend interpreted` on the CLI).  Checkpoints store only the scheme
and its state — never compiled code — so a restored operator recompiles
lazily on its first push, and results are bit-for-bit identical either way
(the backends are differential-tested against each other).

Run:  python examples/deploy_checkpoint.py
"""

import json
import tempfile
from fractions import Fraction
from pathlib import Path

from repro import (
    KeyedOperator,
    OnlineOperator,
    OnlineScheme,
    SynthesisConfig,
    compile,
    load_checkpoint,
    save_checkpoint,
)

BATCH_MEAN = """
def mean(xs):
    s = 0
    for x in xs:
        s += x
    return s / len(xs)
"""


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-deploy-"))

    # -- 1. compile once ----------------------------------------------------
    compiled = compile(BATCH_MEAN, config=SynthesisConfig(timeout_s=60), name="mean")
    print("compile:", "store hit" if compiled.from_store
          else f"synthesized in {compiled.elapsed_s:.2f}s")

    # -- 2. ship the scheme as a file ---------------------------------------
    scheme_path = workdir / "mean.scheme.json"
    compiled.save(scheme_path)
    print(f"scheme written to {scheme_path} "
          f"({scheme_path.stat().st_size} bytes of plain JSON)")

    # A deployment process loads it without touching the synthesizer:
    scheme = OnlineScheme.load(scheme_path)
    assert scheme == compiled.scheme

    # -- 3. stream, checkpoint, crash, restore ------------------------------
    stream = [Fraction(v) for v in range(200)]
    midpoint = 120

    op = OnlineOperator(scheme, name="mean")
    for x in stream[:midpoint]:
        op.push(x)
    ck_path = workdir / "mean.ck.json"
    save_checkpoint(op, ck_path)
    print(f"checkpoint at element {op.count} -> {ck_path}")

    # ...process dies here; a new one resumes from the file:
    resumed = load_checkpoint(ck_path)
    tail_resumed = [resumed.push(x) for x in stream[midpoint:]]

    # Reference: the run that never stopped.
    reference = OnlineOperator(scheme)
    for x in stream[:midpoint]:
        reference.push(x)
    tail_reference = [reference.push(x) for x in stream[midpoint:]]

    assert tail_resumed == tail_reference
    assert resumed.value == reference.value == Fraction(199, 2)
    print(f"resumed run == uninterrupted run on all {len(tail_resumed)} "
          "post-restart outputs ✓")

    # -- 4. keyed operators checkpoint too ----------------------------------
    events = [(Fraction((i * 13) % 97), i % 4) for i in range(100)]
    keyed = KeyedOperator(scheme, key_fn=lambda e: e[1], value_fn=lambda e: e[0])
    keyed.push_many(events[:60])
    keyed_ck = workdir / "keyed.ck.json"
    save_checkpoint(keyed, keyed_ck)

    # Restoring supplies the extractors again (code, not data):
    keyed2 = load_checkpoint(
        keyed_ck, key_fn=lambda e: e[1], value_fn=lambda e: e[0]
    )
    keyed.push_many(events[60:])
    keyed2.push_many(events[60:])
    assert keyed.snapshot() == keyed2.snapshot()
    print(f"keyed restart: {len(keyed2)} partitions, snapshots identical ✓")

    # The checkpoint file is ordinary JSON — inspectable and diffable:
    kinds = json.loads(ck_path.read_text())["kind"]
    print(f"checkpoint kind: {kinds}")


if __name__ == "__main__":
    main()
