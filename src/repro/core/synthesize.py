"""Top-level synthesis (Algorithms 1, 3 and 4).

``synthesize`` strings the pipeline together:

1. ``ConstructRFS`` — :mod:`repro.core.rfs`;
2. initializer — :mod:`repro.core.initializer`;
3. ``Decompose`` — :mod:`repro.core.decompose` (one independent sub-task per
   hole; the Opera-NoDecomp ablation instead poses a single tuple-valued
   task);
4. per-hole ``SynthesizeExpr`` — symbolic first (``FindImplicate``), then
   mined term / template interpolation, then seeded enumerative search (the
   Opera-NoSymbolic ablation skips straight to unseeded enumeration);
5. post-processing (drop unused accumulators) and a final whole-scheme
   equivalence check (Definition 3.3) before the scheme is reported.
"""

from __future__ import annotations

import time

from ..ir.nodes import Expr, MakeTuple, OnlineProgram, Program, Proj
from ..ir.pretty import pretty
from ..ir.traversal import ast_size, fill_holes, validate_online_expr
from .config import SynthesisConfig
from .decompose import Sketch, decompose
from .enumerative import enumerate_expression, seeds_from_template
from .equivalence import check_expr_equivalence, check_scheme_equivalence
from .exceptions import (
    HoleSynthesisFailure,
    SynthesisError,
    SynthesisTimeout,
    UnsupportedProgram,
)
from .implicate import find_implicates
from .initializer import build_initializer
from .mining import mine_expressions
from .postprocess import prune_unused_accumulators
from .report import HoleOutcome, SynthesisReport
from .rfs import RFS, construct_rfs
from .scheme import OnlineScheme
from .simplify import simplify_expr
from .templates import solve_template, templatize


def synthesize_expr(
    rfs: RFS,
    spec: Expr,
    config: SynthesisConfig,
    salt: str = "",
) -> tuple[Expr, str]:
    """Algorithm 4: find an online expression equivalent to ``spec`` modulo
    the RFS.  Returns ``(expression, method)``; raises on failure."""
    if config.expired():
        raise SynthesisTimeout("budget exhausted before expression synthesis")

    seeds: list[Expr] = []
    if config.use_symbolic:
        for candidate in find_implicates(rfs, spec):
            candidate = simplify_expr(candidate)
            if validate_online_expr(candidate) and check_expr_equivalence(
                spec, candidate, rfs, config, salt=f"imp:{salt}"
            ):
                return candidate, "implicate"

        mined = mine_expressions(rfs, spec, config)
        if mined is not None:
            from .encode import decode_term

            direct = simplify_expr(decode_term(mined.term, mined.ctx))
            if validate_online_expr(direct) and check_expr_equivalence(
                spec, direct, rfs, config, salt=f"mine:{salt}"
            ):
                return direct, "mined"
            template = templatize(mined)
            solved = solve_template(template, rfs, spec, config, salt=salt)
            if solved is not None:
                solved = simplify_expr(solved)
                if validate_online_expr(solved):
                    return solved, "template"
            seeds = seeds_from_template(template)

    found = enumerate_expression(rfs, spec, config, seeds=seeds, salt=salt)
    if found is not None:
        return simplify_expr(found), "enumerative"
    raise HoleSynthesisFailure(0, pretty(spec))


def _solve_sketch(
    rfs: RFS, sketch: Sketch, config: SynthesisConfig, report: SynthesisReport
) -> OnlineProgram:
    """Algorithm 3: solve every hole with its own specification (Lemma 1),
    one after another, and fill the sketch."""
    fills: dict[int, Expr] = {}
    for hole_id, spec in sorted(sketch.specs.items()):
        if config.expired():
            raise SynthesisTimeout(f"budget exhausted at hole {hole_id}")
        try:
            expr, method = synthesize_expr(rfs, spec, config, salt=str(hole_id))
        except HoleSynthesisFailure:
            raise HoleSynthesisFailure(hole_id, pretty(spec)) from None
        fills[hole_id] = expr
        report.record_hole(HoleOutcome(hole_id, method, ast_size(spec), ast_size(expr)))
    outputs = tuple(simplify_expr(fill_holes(out, fills)) for out in sketch.program.outputs)
    return OnlineProgram(
        state_params=sketch.program.state_params,
        elem_param=sketch.program.elem_param,
        outputs=outputs,
        extra_params=sketch.program.extra_params,
    )


def _solve_monolithic(rfs: RFS, config: SynthesisConfig, report: SynthesisReport) -> OnlineProgram:
    """Opera-NoDecomp: synthesize the whole output tuple as one expression."""
    spec = MakeTuple(tuple(rfs.entries.values()))
    expr, method = synthesize_expr(rfs, spec, config, salt="monolith")
    report.record_hole(HoleOutcome(0, method, ast_size(spec), ast_size(expr)))
    if isinstance(expr, MakeTuple) and expr.arity == len(rfs):
        outputs = expr.items
    else:
        outputs = tuple(simplify_expr(Proj(expr, i)) for i in range(len(rfs)))
    return OnlineProgram(
        state_params=rfs.names,
        elem_param="x",
        outputs=outputs,
        extra_params=rfs.extra_params,
    )


def synthesize(
    program: Program,
    config: SynthesisConfig | None = None,
    task_name: str = "task",
) -> SynthesisReport:
    """Algorithm 1: offline program in, equivalent online scheme out."""
    config = config or SynthesisConfig()
    config.start_clock()
    started = time.monotonic()
    report = SynthesisReport(task=task_name, success=False, elapsed_s=0.0)

    try:
        rfs = construct_rfs(program)
        initializer = build_initializer(rfs)
        if config.use_decomposition:
            sketch = decompose(rfs)
            online = _solve_sketch(rfs, sketch, config, report)
        else:
            online = _solve_monolithic(rfs, config, report)

        pruned = prune_unused_accumulators(rfs, initializer, online)
        scheme = OnlineScheme(pruned.initializer, pruned.program, provenance=f"opera:{task_name}")
        if not check_scheme_equivalence(program, scheme, config):
            raise SynthesisError("final scheme failed Definition 3.3 testing")
        report.scheme = scheme
        report.success = True
    except (SynthesisError, UnsupportedProgram) as exc:
        report.failure_reason = f"{type(exc).__name__}: {exc}"
    finally:
        report.elapsed_s = time.monotonic() - started
    return report
