"""Closure-compilation backend: IR trees to generated Python closures.

Every hot path of the system — the per-element ``step`` of a deployed online
scheme and the per-candidate test battery of the equivalence oracle —
ultimately executes a *fixed* IR tree over and over.  The definitional
interpreter (:mod:`repro.ir.evaluator`) pays per node and per evaluation:
an ``isinstance`` dispatch chain, environment churn, and a registry lookup
for every built-in call.  This module removes all of that by the standard
closure-compilation / partial-evaluation trick: translate the tree *once*
into Python source, ``compile()``/``exec`` it into a closure, and run that
closure per element.  Three techniques stack up:

* **direct references** — built-ins become names in the closure's globals
  (no registry lookup), variables become Python locals (no env dicts),
  lambdas/combinators become inlined Python lambdas and comprehensions;
* **common-subexpression elimination** — unconditionally-evaluated repeated
  subtrees (IR nodes are frozen dataclasses, so structural sharing is a
  dict lookup) are computed once into single-assignment temporaries.  Sound
  because IR expressions are pure and deterministic; the big win on
  synthesized schemes, whose output tuples share whole update expressions
  (Welford's ``sq'`` appears verbatim in two outputs of the variance
  scheme);
* **exact arithmetic fast paths** — ``add``/``sub``/``mul``/``div``/``neg``
  go through hand-specialized helpers that skip the registry wrapper's
  per-call ``is_number``/``_bit_size``/``normalize_number`` machinery for
  operand shapes where the outcome is provably identical (small ``int`` and
  ``Fraction`` operands), falling back to the *same wrapped impl* the
  interpreter calls for everything else.  Comparisons inline to native
  operators (their registered impls are exactly those operators).

Semantics are preserved bit-for-bit over exact rationals; the interpreter
remains the ground truth and ``tests/test_ir_compile.py`` differential-tests
the two backends against each other on every ground-truth scheme and on
randomly enumerated candidates.

Failure contract (mirroring the interpreter's :class:`EvaluationError`
cases): conditions that are detectable statically — sketch holes, unbound
variables, unknown built-ins, non-applicable callees — fail *at compile
time* with :class:`IRCompileError`, and every caller falls back to the
interpreter, which then raises exactly as it always did.  Conditions that
the interpreter only detects at run time (lambda arity mismatches inside a
combinator, bad projections, missing extra parameters) raise the same
exception class from compiled code as from interpreted code.

The interpreter stays selectable per operator: ``backend="interpreted"``
(``--backend interpreted`` on the CLI) runs a scheme without this module,
resolved by :meth:`repro.core.scheme.OnlineScheme._resolve`.

Online programs compile to one generated module with two entries
(:func:`compile_online`): the scalar ``step`` closure and a
:class:`StepKernel` that runs the whole ``push_many`` hot loop (state
components live in Python locals across the chunk, extra-parameter lookups
are hoisted once per batch, the step body is inlined in the loop).  Both
are rendered from the same prologue and the same CSE'd step body, by one
emitter; the kernel is the execution plan every runtime layer (operators,
keyed partitions, windows) consumes instead of hand-rolling its own
per-element loop.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import Callable, Sequence

from .builtins import get_builtin, is_builtin
from .evaluator import EvaluationError
from .nodes import (
    Call,
    Const,
    Expr,
    Filter,
    Fold,
    Hole,
    If,
    Lambda,
    Let,
    ListVar,
    MakeTuple,
    Map,
    OnlineProgram,
    Proj,
    Snoc,
    Var,
)


class IRCompileError(Exception):
    """The expression cannot be compiled (holes, unbound names, unknown
    built-ins, non-applicable callees, or pathological nesting).  Callers
    fall back to the interpreter, whose behaviour is the specification."""


# -- step kernels: whole-batch execution plans --------------------------------
#
# A kernel advances a scheme state over a *chunk* of elements in one call:
# ``run(state, elements, extra=None) -> (state', consumed)``.  When an
# element raises, the kernel records the state after the last fully-applied
# element on the exception before re-raising, so callers preserve exactly
# the partial progress a per-element loop would have.

#: Attribute a kernel sets on an in-flight exception: ``(state, consumed)``
#: as of the last fully-applied element.
_PARTIAL_ATTR = "__repro_partial__"


def _record_partial(exc: BaseException, state, consumed: int) -> None:
    """Attach partial batch progress to an exception about to propagate.
    Exceptions that refuse attributes (``__slots__``) lose the marker;
    :func:`kernel_partial` then reports zero progress, which is the safe
    under-approximation (never overstates the consumed prefix)."""
    try:
        setattr(exc, _PARTIAL_ATTR, (state, consumed))
    except Exception:
        pass


def kernel_partial(exc: BaseException, fallback_state) -> tuple:
    """The ``(state, consumed)`` a kernel recorded on ``exc`` before
    re-raising, consuming the marker; ``(fallback_state, 0)`` when the
    exception carries none (it did not come through a kernel loop)."""
    partial = getattr(exc, _PARTIAL_ATTR, None)
    if partial is None:
        return fallback_state, 0
    try:
        delattr(exc, _PARTIAL_ATTR)
    except Exception:
        pass
    return partial


class StepKernel:
    """A whole-batch execution plan for one online program: the unit every
    ``push_many`` hot path runs.

    ``run(state, elements, extra=None)`` folds the chunk and returns
    ``(final_state, consumed)``; a raising element propagates its exception
    with partial progress attached (see :func:`kernel_partial`).

    ``compiled`` distinguishes codegen-backed kernels from the
    interpreter-driven fallback built by :meth:`from_step` — behaviourally
    identical (bit-for-bit over exact rationals), only slower.
    """

    __slots__ = ("run", "compiled", "name")

    def __init__(self, run: Callable, *, compiled: bool, name: str = "kernel"):
        self.run = run
        self.compiled = compiled
        self.name = name

    @property
    def source(self) -> str | None:
        """Generated Python source (codegen-backed kernels only)."""
        return getattr(self.run, "__repro_source__", None)

    @classmethod
    def from_step(cls, step: Callable, name: str = "step-loop") -> "StepKernel":
        """Wrap any scalar ``step(state, element, extra)`` — interpreted or
        compiled — in the generic batch loop, with the same run contract as
        a codegen-backed kernel."""

        def _run(state, elements, extra=None):
            consumed = 0
            try:
                for element in elements:
                    state = step(state, element, extra)
                    consumed += 1
            except BaseException as exc:
                _record_partial(exc, state, consumed)
                raise
            return state, consumed

        return cls(_run, compiled=False, name=name)

    def __repr__(self) -> str:
        kind = "compiled" if self.compiled else "interpreted"
        return f"<StepKernel {self.name} ({kind})>"


# -- runtime helpers shared by all generated closures -------------------------
#
# These live in each closure's globals under fixed names.  They cover the few
# constructs that need a statement (fold's loop), a guard the interpreter
# applies (projection, env-provided callables, closure arity), an error the
# interpreter raises only when a lambda is actually invoked, and the exact
# arithmetic fast paths.


def _fold(fn, acc, lst):
    for item in lst:
        acc = fn(acc, item)
    return acc


def _proj(tup, index, what):
    try:
        return tup[index]
    except (IndexError, TypeError) as exc:
        raise EvaluationError(f"bad projection {what}: {exc}") from None


def _env_fn(value, name):
    """The interpreter's Var-in-function-position check, hoisted before the
    arguments/list are evaluated (matching ``_eval_function`` order)."""
    if callable(value):
        return value
    raise EvaluationError(f"variable {name!r} is not a function")


def _extra_get(extra, name, what):
    """Fetch an extra parameter at its use site, with the interpreter's
    unbound-name error.  Used for extras referenced only in conditionally
    evaluated positions (If branches, lambda bodies): fetching those in the
    step prologue would raise where the interpreter — which only looks a
    name up when the branch actually runs — succeeds."""
    try:
        return extra[name]
    except (KeyError, TypeError):
        raise EvaluationError(f"unbound {what} {name!r}") from None


def _arity(expected, got):
    """Raise the interpreter's closure arity error *after* the arguments have
    been evaluated (``got`` is the already-built argument tuple)."""
    raise EvaluationError(f"lambda expects {expected} args, got {len(got)}")


def _lam(expected, fn):
    """Wrap a compiled lambda used as a first-class value so that calling it
    with the wrong arity raises ``EvaluationError`` like ``Closure`` does."""

    def _closure(*args):
        if len(args) != expected:
            raise EvaluationError(f"lambda expects {expected} args, got {len(args)}")
        return fn(*args)

    return _closure


# -- exact arithmetic fast paths ---------------------------------------------
#
# The registry impls of the "poly" built-ins (see ``_num2`` in
# repro.ir.builtins) pay two ``is_number`` checks, two ``_bit_size`` calls (a
# guard that degrades astronomically large exact values to floats past a
# combined 2**20 bits), a lambda indirection, and a ``normalize_number`` per
# call.  The helpers below take the exact path directly for operand shapes
# where the wrapper's outcome is provably the plain operation (small ints,
# small Fractions — "small" chosen so the combined bit size stays at or
# below the wrapper's 2**20 threshold), and defer to the wrapped impl
# otherwise.  Soundness, not completeness: every guarded branch returns
# exactly what the impl would, and everything else *is* the impl.

_INT_LIMIT = 1 << (1 << 19)  # operands under 2**19 bits each: sum <= 2**20
_FRAC_LIMIT = 1 << (1 << 18)  # num/den under 2**18 bits each: sum <= 2**20
# Negated bounds are precomputed: `-_INT_LIMIT` in an expression would
# re-negate (i.e. reallocate) a 2**19-bit integer on every single check.
_INT_LIMIT_NEG = -_INT_LIMIT
_FRAC_LIMIT_NEG = -_FRAC_LIMIT

_ADD_IMPL = get_builtin("add").impl
_SUB_IMPL = get_builtin("sub").impl
_MUL_IMPL = get_builtin("mul").impl
_DIV_IMPL = get_builtin("div").impl
_NEG_IMPL = get_builtin("neg").impl

# CPython (and PyPy) store Fraction components in the ``_numerator`` /
# ``_denominator`` slots; the public ``numerator``/``denominator`` names are
# pure-Python properties, ~3x slower per access.  The fast paths use the
# slots when present — they sit on the hottest line of the whole system —
# and fall back to the registry impls wholesale on exotic runtimes.
_HAS_FRACTION_SLOTS = hasattr(Fraction(0), "_numerator")


def _monomorphic_fraction_ops():
    """``a + b`` on Fractions routes through the ``_operator_fallbacks``
    dispatch wrapper (an isinstance ladder per call) before reaching the
    monomorphic ``Fraction._add``.  Those monomorphic methods take ``int``
    in either position via the ``numerator``/``denominator`` duck protocol,
    so calling them directly is exact — verified here at import; anything
    off and the fast paths use the plain operators instead."""
    try:
        add, sub = Fraction._add, Fraction._sub
        mul, div = Fraction._mul, Fraction._div
        third, half = Fraction(1, 3), Fraction(1, 2)
        if (
            add(third, Fraction(1, 6)) == half
            and add(2, third) == Fraction(7, 3)
            and add(third, 2) == Fraction(7, 3)
            and sub(half, third) == Fraction(1, 6)
            and sub(2, third) == Fraction(5, 3)
            and mul(Fraction(2, 3), Fraction(3, 4)) == half
            and mul(3, third) == 1
            and div(1, Fraction(2, 3)) == Fraction(3, 2)
            and div(half, -2) == Fraction(-1, 4)
            and div(half, -2)._denominator == 4
            and div(3, 6) == half
        ):
            return add, sub, mul, div
    except (AttributeError, TypeError, ValueError):
        pass
    import operator

    # Exact generic fallbacks.  Division must stay rational for int
    # operands (operator.truediv would produce a float).
    return (
        operator.add,
        operator.sub,
        operator.mul,
        lambda a, b: Fraction(a) / Fraction(b),
    )


_F_ADD, _F_SUB, _F_MUL, _F_DIV = _monomorphic_fraction_ops()


def _fast_add(a, b):
    ta = type(a)
    tb = type(b)
    if ta is Fraction:
        if not (_FRAC_LIMIT_NEG < a._numerator < _FRAC_LIMIT and a._denominator < _FRAC_LIMIT):
            return _ADD_IMPL(a, b)
        if tb is Fraction:
            if not (_FRAC_LIMIT_NEG < b._numerator < _FRAC_LIMIT and b._denominator < _FRAC_LIMIT):
                return _ADD_IMPL(a, b)
        elif tb is not int or not (_FRAC_LIMIT_NEG < b < _FRAC_LIMIT):
            return _ADD_IMPL(a, b)
    elif ta is int:
        if tb is int:
            if _INT_LIMIT_NEG < a < _INT_LIMIT and _INT_LIMIT_NEG < b < _INT_LIMIT:
                return a + b  # ints are closed under +: already normalized
            return _ADD_IMPL(a, b)
        if (
            tb is not Fraction
            or not (_FRAC_LIMIT_NEG < a < _FRAC_LIMIT)
            or not (
                _FRAC_LIMIT_NEG < b._numerator < _FRAC_LIMIT
                and b._denominator < _FRAC_LIMIT
            )
        ):
            return _ADD_IMPL(a, b)
    else:
        return _ADD_IMPL(a, b)
    r = _F_ADD(a, b)
    return r._numerator if r._denominator == 1 else r


def _fast_sub(a, b):
    ta = type(a)
    tb = type(b)
    if ta is Fraction:
        if not (_FRAC_LIMIT_NEG < a._numerator < _FRAC_LIMIT and a._denominator < _FRAC_LIMIT):
            return _SUB_IMPL(a, b)
        if tb is Fraction:
            if not (_FRAC_LIMIT_NEG < b._numerator < _FRAC_LIMIT and b._denominator < _FRAC_LIMIT):
                return _SUB_IMPL(a, b)
        elif tb is not int or not (_FRAC_LIMIT_NEG < b < _FRAC_LIMIT):
            return _SUB_IMPL(a, b)
    elif ta is int:
        if tb is int:
            if _INT_LIMIT_NEG < a < _INT_LIMIT and _INT_LIMIT_NEG < b < _INT_LIMIT:
                return a - b
            return _SUB_IMPL(a, b)
        if (
            tb is not Fraction
            or not (_FRAC_LIMIT_NEG < a < _FRAC_LIMIT)
            or not (
                _FRAC_LIMIT_NEG < b._numerator < _FRAC_LIMIT
                and b._denominator < _FRAC_LIMIT
            )
        ):
            return _SUB_IMPL(a, b)
    else:
        return _SUB_IMPL(a, b)
    r = _F_SUB(a, b)
    return r._numerator if r._denominator == 1 else r


def _fast_mul(a, b):
    ta = type(a)
    tb = type(b)
    if ta is Fraction:
        if not (_FRAC_LIMIT_NEG < a._numerator < _FRAC_LIMIT and a._denominator < _FRAC_LIMIT):
            return _MUL_IMPL(a, b)
        if tb is Fraction:
            if not (_FRAC_LIMIT_NEG < b._numerator < _FRAC_LIMIT and b._denominator < _FRAC_LIMIT):
                return _MUL_IMPL(a, b)
        elif tb is not int or not (_FRAC_LIMIT_NEG < b < _FRAC_LIMIT):
            return _MUL_IMPL(a, b)
    elif ta is int:
        if tb is int:
            if _INT_LIMIT_NEG < a < _INT_LIMIT and _INT_LIMIT_NEG < b < _INT_LIMIT:
                return a * b
            return _MUL_IMPL(a, b)
        if (
            tb is not Fraction
            or not (_FRAC_LIMIT_NEG < a < _FRAC_LIMIT)
            or not (
                _FRAC_LIMIT_NEG < b._numerator < _FRAC_LIMIT
                and b._denominator < _FRAC_LIMIT
            )
        ):
            return _MUL_IMPL(a, b)
    else:
        return _MUL_IMPL(a, b)
    r = _F_MUL(a, b)
    return r._numerator if r._denominator == 1 else r


def _fast_div(a, b):
    # safe_div has no bit-size degrade: its exact path is
    # normalize(Fraction(a) / Fraction(b)) with a/0 == 0, reproduced here
    # without the isinstance ladder.
    ta = type(a)
    tb = type(b)
    if (ta is int or ta is Fraction) and (tb is int or tb is Fraction):
        if b == 0:
            return 0
        r = _F_DIV(a, b)
        return r._numerator if r._denominator == 1 else r
    return _DIV_IMPL(a, b)


def _fast_neg(a):
    ta = type(a)
    if ta is int:
        return -a
    if ta is Fraction:
        # a cannot carry denominator 1 out of normalized arithmetic, but
        # initializers/extras supplied by callers might.
        return -a._numerator if a._denominator == 1 else -a
    return _NEG_IMPL(a)


#: Built-ins dispatched to a specialized fast-path helper instead of the
#: registry impl (drop-in exact replacements, also valid as first-class
#: callables in Map/Filter/Fold position).
_FAST_IMPLS = (
    {
        "add": _fast_add,
        "sub": _fast_sub,
        "mul": _fast_mul,
        "div": _fast_div,
        "neg": _fast_neg,
    }
    if _HAS_FRACTION_SLOTS
    else {}
)

#: Comparisons whose registered impl is exactly the native operator; calls
#: with the right arity inline to that operator.
_INLINE_CMP = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "==", "ne": "!="}

#: Binary built-ins whose registered impl is exactly the native function of
#: the same name; calls with the right arity inline to it (the name is made
#: available in the generated module's restricted __builtins__).
_INLINE_NATIVE2 = {"min", "max"}

#: Operators usable for the zero-call inline int fast path (the else branch
#: falls back to the corresponding _fast_* helper, which is exact).
_INLINE_INT_OP = {"add": "+", "sub": "-", "mul": "*"}

_IDENT_RE = re.compile(r"[^0-9A-Za-z_]")
_SIMPLE_RE = re.compile(r"-?\d+|[A-Za-z_][A-Za-z0-9_]*")
_INT_LITERAL_RE = re.compile(r"-?\d+")


def _is_simple(code: str) -> bool:
    """Emitted code that is free to repeat: a name or an int literal."""
    return _SIMPLE_RE.fullmatch(code) is not None


def _is_int_literal(code: str) -> bool:
    return _INT_LITERAL_RE.fullmatch(code) is not None


def _free_names(expr: Expr) -> frozenset[str]:
    """Free ``Var``/``ListVar`` names, including a ``Var`` in call position
    (which :func:`repro.ir.traversal.free_vars` does not see)."""
    if isinstance(expr, (Var, ListVar)):
        return frozenset((expr.name,))
    if isinstance(expr, Lambda):
        return _free_names(expr.body) - frozenset(expr.params)
    if isinstance(expr, Let):
        return _free_names(expr.value) | (_free_names(expr.body) - {expr.name})
    result: frozenset[str] = frozenset()
    if isinstance(expr, Call) and isinstance(expr.func, Var):
        result |= frozenset((expr.func.name,))
    for child in expr.children():
        result |= _free_names(child)
    return result


def _unconditional_free(expr: Expr, bound: frozenset[str]) -> frozenset[str]:
    """Free names that every evaluation of ``expr`` is guaranteed to look
    up: everything except ``If`` branches and function bodies (which may
    never run — conservatively including directly-applied lambdas).  Drives
    the eager-vs-lazy split of extra-parameter binding in
    :func:`compile_online`."""
    if isinstance(expr, (Var, ListVar)):
        return frozenset((expr.name,)) - bound
    if isinstance(expr, Lambda):
        return frozenset()
    if isinstance(expr, Let):
        return _unconditional_free(expr.value, bound) | _unconditional_free(
            expr.body, bound | {expr.name}
        )
    if isinstance(expr, If):
        return _unconditional_free(expr.cond, bound)
    if isinstance(expr, (Map, Filter)):
        result = _unconditional_free(expr.lst, bound)
        if isinstance(expr.func, Var):
            result |= frozenset((expr.func.name,)) - bound
        return result
    if isinstance(expr, Fold):
        result = _unconditional_free(expr.init, bound) | _unconditional_free(expr.lst, bound)
        if isinstance(expr.func, Var):
            result |= frozenset((expr.func.name,)) - bound
        return result
    result = frozenset()
    if isinstance(expr, Call) and isinstance(expr.func, Var):
        result |= frozenset((expr.func.name,)) - bound
    for child in expr.children():
        result |= _unconditional_free(child, bound)
    return result


class _Codegen:
    """One generated module: accumulates globals (constants, built-in impls,
    helpers) while emitting Python code for IR trees.

    :meth:`emit` has two contexts, chosen by its ``lines`` argument:

    * statement context (``lines`` given) for unconditionally-evaluated
      positions: every non-trivial node becomes a single-assignment
      temporary, memoized by the (structurally hashable) node itself, which
      is exactly common-subexpression elimination;
    * expression context (no ``lines``) for conditionally-evaluated
      positions (``If`` branches, lambda bodies).  ``If`` branches still
      *read* the memo (no new bindings in scope); binder bodies drop it
      (their parameters may shadow the names a memoized temp was computed
      under).

    Emitted lines are unindented; the compilers indent them per ``def``.
    """

    def __init__(self) -> None:
        self.globals: dict = {
            "__builtins__": {
                "len": len,
                "list": list,
                "bool": bool,
                "int": int,
                "min": min,
                "max": max,
                "KeyError": KeyError,
                "TypeError": TypeError,
                "BaseException": BaseException,
            },
            "EvaluationError": EvaluationError,
            "_fold": _fold,
            "_proj": _proj,
            "_env_fn": _env_fn,
            "_arity": _arity,
            "_lam": _lam,
        }
        self._names: dict[str, str] = {}
        self._name_serial = itertools.count()
        self._serial = itertools.count()
        #: Extra-parameter names resolved lazily at each use site (via
        #: _extra_get) instead of eagerly in the step prologue — the ones
        #: referenced only in conditionally evaluated positions.
        self.lazy_extras: frozenset[str] = frozenset()

    # -- naming ------------------------------------------------------------

    def mangle(self, name: str) -> str:
        """Stable Python identifier for an IR variable name.  One identifier
        per distinct IR name, so IR shadowing maps onto Python shadowing."""
        ident = self._names.get(name)
        if ident is None:
            ident = f"_v{next(self._name_serial)}_{_IDENT_RE.sub('_', name)}"
            self._names[name] = ident
        return ident

    def fresh(self, prefix: str = "_t") -> str:
        return f"{prefix}{next(self._serial)}"

    def const(self, value) -> str:
        """Reference a constant.  Bools and small ints inline as literals;
        everything else (``Fraction``, floats including inf/nan, big ints)
        is preloaded into the globals so the closure reuses the *same*
        object the ``Const`` node carries — exactly what the interpreter
        returns."""
        if value is True:
            return "True"
        if value is False:
            return "False"
        if type(value) is int and -(2**31) < value < 2**31:
            return repr(value)
        name = self.fresh("_c")
        self.globals[name] = value
        return name

    def builtin(self, name: str) -> str:
        if not is_builtin(name):
            raise IRCompileError(f"unknown builtin {name!r}")
        ident = f"_b_{_IDENT_RE.sub('_', name)}"
        if ident not in self.globals:
            self.globals[ident] = _FAST_IMPLS.get(name) or get_builtin(name).impl
        return ident

    def string(self, text: str) -> str:
        name = self.fresh("_s")
        self.globals[name] = text
        return name

    def _name_ref(self, name: str, bound: frozenset[str], kind: str) -> str:
        """A variable reference: a Python local when bound (parameters,
        state, eagerly-fetched extras, binders), a lazy per-use fetch for
        conditionally-referenced extras, a compile-time error otherwise."""
        if name in bound:
            return self.mangle(name)
        if name in self.lazy_extras:
            self.globals.setdefault("_extra_get", _extra_get)
            return f"_extra_get(_extra, {name!r}, {kind!r})"
        raise IRCompileError(f"unbound variable {name!r}")

    # -- emission ----------------------------------------------------------

    def emit(
        self,
        expr: Expr,
        bound: frozenset[str],
        memo: dict | None = None,
        lines: list | None = None,
    ) -> str:
        """Code for ``expr``.  With ``lines`` (statement context, ``memo``
        required) the node's unconditionally evaluated children — argument,
        condition, list and init positions — are hoisted first, in the
        interpreter's evaluation order, and the node itself becomes a
        memoized temporary; the result is then a simple reference (literal,
        variable, or temporary)."""
        if memo is not None:
            cached = memo.get(expr)
            if cached is not None:
                return cached
        if isinstance(expr, Const):
            return self.const(expr.value)
        if isinstance(expr, Var):
            return self._name_ref(expr.name, bound, "variable")
        if isinstance(expr, ListVar):
            return self._name_ref(expr.name, bound, "list variable")
        if isinstance(expr, Call):
            func = expr.func
            # An env-provided callee is checked before the arguments run.
            callee = self._callee(func, bound, lines) if isinstance(func, Var) else None
            args = [self.emit(a, bound, memo, lines) for a in expr.args]
            if callee is None:
                code = self._apply(func, args, bound)
            else:
                code = f"{callee}({', '.join(args)})"
        elif isinstance(expr, If):
            cond = self.emit(expr.cond, bound, memo, lines)
            then = self.emit(expr.then, bound, memo)
            orelse = self.emit(expr.orelse, bound, memo)
            code = f"({then} if {cond} else {orelse})"
        elif isinstance(expr, (Map, Filter)):
            code = self._combinator(expr, bound, memo, lines)
        elif isinstance(expr, Fold):
            func = expr.func
            if not isinstance(func, Lambda):
                fn = self._callee(func, bound, lines)
            elif len(func.params) == 2:
                fn = self._lambda(func, bound)
            else:  # raises on the first call, like the interpreter's Closure
                args = self.fresh("_a")
                fn = f"(lambda *{args}: _arity({len(func.params)}, {args}))"
            init = self.emit(expr.init, bound, memo, lines)
            lst = self.emit(expr.lst, bound, memo, lines)
            code = f"_fold({fn}, {init}, {lst})"
        elif isinstance(expr, Let):
            value = self.emit(expr.value, bound, memo, lines)
            body = self.emit(expr.body, bound | {expr.name})
            code = f"(lambda {self.mangle(expr.name)}: {body})({value})"
        elif isinstance(expr, Snoc):
            lst = self.emit(expr.lst, bound, memo, lines)
            elem = self.emit(expr.elem, bound, memo, lines)
            code = f"(list({lst}) + [{elem}])"
        elif isinstance(expr, MakeTuple):
            code = _tuple([self.emit(item, bound, memo, lines) for item in expr.items])
        elif isinstance(expr, Proj):
            tup = self.emit(expr.tup, bound, memo, lines)
            code = f"_proj({tup}, {expr.index}, {self.string(repr(expr))})"
        elif isinstance(expr, Lambda):
            # Value position: arity-guarded like the interpreter's Closure.
            code = f"_lam({len(expr.params)}, {self._lambda(expr, bound)})"
        elif isinstance(expr, Hole):
            raise IRCompileError(f"cannot compile sketch hole {expr!r}")
        else:
            raise IRCompileError(f"unhandled node {type(expr).__name__}")
        if lines is None:
            return code
        temp = self.fresh()
        lines.append(f"{temp} = {code}")
        memo[expr] = temp
        return temp

    def _apply(self, func, args: list, bound: frozenset[str]) -> str:
        """A ``Call`` whose arguments are already emitted (func is a builtin
        name or a Lambda; a Var callee is resolved by :meth:`_callee`
        before its arguments)."""
        arglist = ", ".join(args)
        if isinstance(func, str):
            if len(args) == 2:
                op = _INLINE_CMP.get(func)
                if op is not None:
                    return f"({args[0]} {op} {args[1]})"
                if func in _INLINE_NATIVE2:
                    # impl is exactly the native function of the same name
                    return f"{func}({arglist})"
                op = _INLINE_INT_OP.get(func)
                if op is not None and all(map(_is_simple, args)):
                    return self._int_fast_path(func, op, args)
            if len(args) == 1:
                if func == "not":
                    return f"(not {args[0]})"
                if func == "length":
                    return f"len({args[0]})"
            # Arity mismatches surface as TypeError from the impl call, for
            # compiled and interpreted execution alike.
            return f"{self.builtin(func)}({arglist})"
        if isinstance(func, Lambda):
            if len(func.params) != len(args):
                # The interpreter evaluates the arguments, then Closure
                # raises; the argument tuple reproduces that order.
                tup = "(" + "".join(a + ", " for a in args) + ")"
                return f"_arity({len(func.params)}, {tup})"
            return f"{self._lambda(func, bound)}({arglist})"
        raise IRCompileError(f"cannot apply {func!r}")

    def _int_fast_path(self, func: str, op: str, args: list) -> str:
        """Zero-call inline path for add/sub/mul over small ints, guarded to
        agree exactly with the registry wrapper; anything else falls through
        to the exact ``_b_*`` helper.  Arguments are simple (single names or
        int literals), so repeating them costs nothing and literals skip
        their statically-true guards."""
        a, b = args
        self.globals.setdefault("_IL", _INT_LIMIT)
        self.globals.setdefault("_ILN", _INT_LIMIT_NEG)
        checks = []
        for operand in args:
            if not _is_int_literal(operand):
                checks.append(f"{operand}.__class__ is int")
                # _ILN is the precomputed negation: writing `-_IL` here would
                # reallocate a 2**19-bit integer on every evaluation.
                checks.append(f"_ILN < {operand} < _IL")
        if not checks:  # both literals: statically small ints, always exact
            return f"({a} {op} {b})"
        guard = " and ".join(checks)
        return f"({a} {op} {b} if {guard} else {self.builtin(func)}({a}, {b}))"

    def _lambda(self, lam: Lambda, bound: frozenset[str]) -> str:
        # A binder scope: the memo is dropped (parameters may shadow the
        # names memoized temporaries were computed under).
        params = ", ".join(self.mangle(p) for p in lam.params)
        body = self.emit(lam.body, bound | frozenset(lam.params))
        return f"(lambda {params}: {body})" if params else f"(lambda: {body})"

    def _callee(self, func, bound: frozenset[str], lines: list | None) -> str:
        """A non-lambda function position (a Var callee, Map/Filter/Fold) as
        code evaluating to a callable: a builtin's impl, or an env-provided
        value behind the interpreter's callable check — hoisted into a
        temporary in statement context."""
        if isinstance(func, str):
            return self.builtin(func)
        if not isinstance(func, Var):
            raise IRCompileError(f"cannot apply {func!r}")
        if func.name not in bound:
            raise IRCompileError(f"unbound variable {func.name!r}")
        code = f"_env_fn({self.mangle(func.name)}, {func.name!r})"
        if lines is None:
            return code
        temp = self.fresh("_f")
        lines.append(f"{temp} = {code}")
        return temp

    def _combinator(self, expr, bound: frozenset[str], memo: dict | None, lines) -> str:
        """Map/Filter as a comprehension.  A builtin or env-provided callee
        is resolved (and checked) before the list is evaluated, matching the
        interpreter's ``_eval_function`` order; a lambda is inlined."""
        func = expr.func
        var = self.fresh()
        callee = fn = None
        if isinstance(func, Lambda):
            lst = self.emit(expr.lst, bound, memo, lines)
            if len(func.params) == 1:
                var = self.mangle(func.params[0])
                value = self.emit(func.body, bound | frozenset(func.params))
            else:
                # Wrong arity: the interpreter raises when the closure is
                # first invoked — per element, so [] still maps to [].
                value = f"_arity({len(func.params)}, ({var},))"
        else:
            callee = self._callee(func, bound, lines)
            lst = self.emit(expr.lst, bound, memo, lines)
            # An inline env check binds through a lambda parameter so that
            # it runs once, before the list.
            fn = callee if _is_simple(callee) else self.fresh("_f")
            value = f"{fn}({var})"
        if isinstance(expr, Filter):
            comp = f"[{var} for {var} in {lst} if {value}]"
        else:
            comp = f"[{value} for {var} in {lst}]"
        if fn == callee:  # a lambda, or a callee that is already a name
            return comp
        return f"(lambda {fn}: {comp})({callee})"

    # -- finalization ------------------------------------------------------

    def build(self, source: str, entries: Sequence[str], what: str) -> list[Callable]:
        """Exec ``source`` once and return its ``entries`` functions."""
        try:
            code = compile(source, f"<repro-compiled:{what}>", "exec")
        except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
            raise IRCompileError(f"generated source rejected for {what}: {exc}") from None
        namespace: dict = {}
        exec(code, self.globals, namespace)
        fns = [namespace[entry] for entry in entries]
        for fn in fns:
            fn.__repro_source__ = source  # introspection / debugging
        return fns


def _tuple(items: Sequence[str]) -> str:
    if len(items) == 1:
        return f"({items[0]},)"
    return f"({', '.join(items)})"


def _indent(lines: Sequence[str], depth: int) -> list[str]:
    pad = "    " * depth
    return [pad + line for line in lines]


def compile_expr(expr: Expr, params: Sequence[str], name: str = "expr") -> Callable:
    """Compile ``expr`` into ``f(*values)`` taking one positional argument
    per name in ``params`` (in order; names must be distinct).

    Equivalent to ``evaluate(expr, dict(zip(params, values)))``, minus the
    per-call tree walk.  Free names outside ``params`` make the compilation
    fail with :class:`IRCompileError` (the interpreter would raise
    ``EvaluationError`` at run time; callers keep it as the fallback).
    """
    cg = _Codegen()
    arglist = ", ".join(cg.mangle(p) for p in params)
    body: list[str] = []
    try:
        result = cg.emit(expr, frozenset(params), {}, body)
    except RecursionError:
        raise IRCompileError(f"expression too deep to compile: {name}") from None
    lines = [f"def _compiled({arglist}):", *_indent([*body, f"return {result}"], 1)]
    (fn,) = cg.build("\n".join(lines) + "\n", ["_compiled"], name)
    return fn


def _extras_of(program: OnlineProgram) -> tuple[list[str], set[str], list[str]]:
    """Extra-parameter analysis of an online program: ``(all extras,
    list-typed extras, eagerly-fetched extras)``.

    Extras every step is guaranteed to look up can be fetched once in a
    prologue; extras referenced only in conditionally evaluated positions
    (If branches, lambda bodies) must be fetched lazily at each use site,
    so a missing binding raises exactly when the interpreter would.
    """
    from .traversal import iter_subexprs

    bound = frozenset(program.state_params) | {program.elem_param}
    all_extras: list[str] = []
    uncond: frozenset[str] = frozenset()
    list_extras: set[str] = set()
    for out in program.outputs:
        for free in sorted(_free_names(out) - bound):
            if free not in all_extras:
                all_extras.append(free)
        uncond |= _unconditional_free(out, bound)
        for sub in iter_subexprs(out):
            if isinstance(sub, ListVar) and sub.name not in bound:
                list_extras.add(sub.name)
    eager_extras = [name for name in all_extras if name in uncond]
    return all_extras, list_extras, eager_extras


def _batchable(program: OnlineProgram) -> bool:
    """The batch loop keeps state components in named locals across the
    chunk; two program shapes break that invariant and get no kernel (the
    scalar step driven by the generic loop reproduces them exactly):

    * an element parameter shadowing a state parameter — the loop target
      would clobber the pre-element state a mid-batch failure must report;
    * duplicate state parameters or an output count differing from the
      state arity — the name-addressed locals could not represent the
      positional state tuple the scalar step returns.
    """
    return (
        program.elem_param not in program.state_params
        and len(set(program.state_params)) == program.arity
        and len(program.outputs) == program.arity
    )


def compile_online(
    program: OnlineProgram, name: str = "step"
) -> tuple[Callable, StepKernel | None]:
    """Compile an online program into its two entries, ``(step, kernel)``,
    rendered from one CSE'd step body into one generated module:

    * ``step(state, element, extra=None)`` — a drop-in replacement for
      ``lambda s, x, e=None: step_online(program, s, x, e)``, with the same
      results and the same ``EvaluationError`` on a state-arity mismatch or
      a missing extra binding;
    * a :class:`StepKernel` whose ``run(state, elements, extra=None)``
      compiles the batch *loop*: state components live in Python locals
      across the chunk, eager extra lookups run on the first iteration —
      once per batch, and never for an empty batch, which must not look
      extras up — and the step body is inlined in the loop.  Per-element
      state updates are one tuple assignment, so when an element raises
      the exception carries the state after the last fully-applied element
      (:func:`kernel_partial`), exactly what a per-element loop keeps.

    Both agree bit-for-bit with the interpreter.  ``kernel`` is ``None``
    for shapes the loop cannot represent (see :func:`_batchable`); callers
    then drive ``step`` from :meth:`StepKernel.from_step`.  Raises
    :class:`IRCompileError` when the step itself cannot be compiled.
    """
    cg = _Codegen()
    arity = program.arity
    all_extras, list_extras, eager_extras = _extras_of(program)
    cg.lazy_extras = frozenset(all_extras) - frozenset(eager_extras)
    state_vars = [cg.mangle(p) for p in program.state_params]
    elem = cg.mangle(program.elem_param)

    prologue = [
        f"if len(_state) != {arity}:",
        "    raise EvaluationError("
        f"f\"online program expects {arity} state values, got {{len(_state)}}\")",
    ]
    if arity:
        prologue.append(f"{_tuple(state_vars)} = _state")
    # Eager extras, with the interpreter's unbound-name error on a missing
    # binding (or a None mapping).
    for extra_name in eager_extras:
        kind = "list variable" if extra_name in list_extras else "variable"
        prologue += [
            "try:",
            f"    {cg.mangle(extra_name)} = _extra[{extra_name!r}]",
            "except (KeyError, TypeError):",
            f"    raise EvaluationError(\"unbound {kind} {extra_name!r}\") from None",
        ]
    body: list[str] = []
    bound = frozenset(program.state_params) | {program.elem_param} | frozenset(eager_extras)
    memo: dict = {}
    try:
        outputs = [cg.emit(out, bound, memo, body) for out in program.outputs]
    except RecursionError:
        raise IRCompileError(f"online program too deep to compile: {name}") from None

    # The element binds last: it shadows a state parameter of the same name,
    # exactly like env[elem_param] = element in step_online.
    step_body = [*prologue, f"{elem} = _elem", *body, f"return {_tuple(outputs)}"]
    lines = ["def _compiled_step(_state, _elem, _extra=None):", *_indent(step_body, 1)]
    entries = ["_compiled_step"]
    if _batchable(program):
        state = _tuple(state_vars)
        # The whole prologue runs on the FIRST iteration, not above the
        # loop: an empty batch must touch neither the state shape nor the
        # extras (a per-element loop never would), while a non-empty one
        # fails on element 0 before its step body, like the scalar step.
        loop = ["if not _n:", *_indent(prologue, 1), *body]
        if arity:
            # One tuple assignment: the RHS is fully evaluated before any
            # state local changes, so a raising subexpression leaves the
            # previous element's state intact for the partial record.
            loop.append(f"{', '.join(state_vars)} = {', '.join(outputs)}")
        loop.append("_n += 1")
        # The loop target *is* the element binding (no per-element rebind);
        # _batchable guarantees it cannot clobber a state local.  With no
        # element applied the state locals are unbound: the input state
        # passes through unchanged, as in the generic step loop.
        lines += [
            "def _compiled_batch(_state, _elems, _extra=None):",
            "    _n = 0",
            "    try:",
            f"        for {elem} in _elems:",
            *_indent(loop, 3),
            "    except BaseException as _exc:",
            f"        _record_partial(_exc, {state} if _n else _state, _n)",
            "        raise",
            f"    return ({state} if _n else _state, _n)",
        ]
        entries.append("_compiled_batch")
        cg.globals["_record_partial"] = _record_partial
    step, *run = cg.build("\n".join(lines) + "\n", entries, name)
    return step, (StepKernel(run[0], compiled=True, name=name) if run else None)
