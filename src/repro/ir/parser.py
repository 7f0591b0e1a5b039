"""S-expression parser for the IR.

The concrete syntax mirrors :func:`repro.ir.pretty.to_sexpr`::

    (lambda (xs) (div (foldl add 0 xs) (length xs)))

Grammar notes:

* the first parameter of the top-level lambda is the input *list* variable;
  any further parameters are scalar extra arguments (Section 6);
* ``true`` / ``false`` are boolean literals; integers and ``p/q`` rationals
  are numeric literals;
* ``(let name value body)``, ``(if c t e)``, ``(map f l)``, ``(filter f l)``,
  ``(foldl f init l)``, ``(tuple e...)``, ``(proj e i)``, ``(snoc l e)`` are
  special forms; every other head is a built-in call or lambda application;
* inside the program body, occurrences of list-variable names parse to
  :class:`~repro.ir.nodes.ListVar`.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .builtins import is_builtin
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
    Program,
    Proj,
    Snoc,
    Var,
)

_TOKEN_RE = re.compile(r"""\(|\)|[^\s()]+""")
_INT_RE = re.compile(r"^-?\d+$")
_RAT_RE = re.compile(r"^(-?\d+)/(\d+)$")
_FLOAT_RE = re.compile(r"^-?\d+(\.\d+([eE][+-]?\d+)?|[eE][+-]?\d+)$")
_HOLE_RE = re.compile(r"^\?hole(\d+)$")

#: Deepest parenthesis nesting accepted.  Deeper input would exhaust the
#: interpreter's stack here or in the recursive passes that follow.
_MAX_DEPTH = 200


class ParseError(Exception):
    """Malformed s-expression input (the only error the parser raises)."""


def tokenize(text: str) -> list[str]:
    # strip ; comments to end of line
    stripped = re.sub(r";[^\n]*", "", text)
    return _TOKEN_RE.findall(stripped)


def _read(tokens: list[str], pos: int, depth: int = 0):
    """Read one datum; returns (sexpr, new_pos) where sexpr is str | list."""
    if pos >= len(tokens):
        raise ParseError("unexpected end of input")
    tok = tokens[pos]
    if tok == "(":
        if depth >= _MAX_DEPTH:
            raise ParseError(f"nesting deeper than {_MAX_DEPTH} levels")
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _read(tokens, pos, depth + 1)
            items.append(item)
        if pos >= len(tokens):
            raise ParseError("unbalanced parentheses")
        return items, pos + 1
    if tok == ")":
        raise ParseError("unexpected ')'")
    return tok, pos + 1


def _read_one(text: str, what: str):
    """The single datum that makes up ``text``."""
    tokens = tokenize(text)
    sexpr, pos = _read(tokens, 0)
    if pos != len(tokens):
        raise ParseError(f"trailing tokens after {what}: {tokens[pos:]}")
    return sexpr


def _int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # longer than sys.get_int_max_str_digits()
        raise ParseError(f"integer literal of {len(digits)} digits is too long") from None


def _params(raw, what: str) -> tuple[str, ...]:
    """The parameter list of a lambda: one name or a list of names."""
    params = (raw,) if isinstance(raw, str) else tuple(raw)
    if not all(isinstance(p, str) for p in params):
        raise ParseError(f"{what} parameters must be plain names")
    return params


def _atom_to_expr(tok: str, list_names: frozenset[str]) -> Expr:
    if tok == "true":
        return Const(True)
    if tok == "false":
        return Const(False)
    if _INT_RE.match(tok):
        return Const(_int(tok))
    m = _RAT_RE.match(tok)
    if m:
        numerator, denominator = _int(m.group(1)), _int(m.group(2))
        if denominator == 0:
            raise ParseError(f"rational literal {tok!r} has a zero denominator")
        return Const(Fraction(numerator, denominator))
    if _FLOAT_RE.match(tok):
        return Const(float(tok))
    m = _HOLE_RE.match(tok)
    if m:
        return Hole(_int(m.group(1)))
    if tok in list_names:
        return ListVar(tok)
    return Var(tok)


def _to_expr(sexpr, list_names: frozenset[str]) -> Expr:
    if isinstance(sexpr, str):
        return _atom_to_expr(sexpr, list_names)
    if not sexpr:
        raise ParseError("empty application ()")
    head = sexpr[0]
    if head == "lambda":
        if len(sexpr) != 3:
            raise ParseError("lambda needs (lambda (params) body)")
        params = _params(sexpr[1], "lambda")
        body = _to_expr(sexpr[2], list_names - frozenset(params))
        return Lambda(params, body)
    if head == "if":
        _expect(sexpr, 4, "if")
        return If(*(_to_expr(s, list_names) for s in sexpr[1:]))
    if head == "let":
        _expect(sexpr, 4, "let")
        name = sexpr[1]
        if not isinstance(name, str):
            raise ParseError("let binds a plain name")
        return Let(
            name,
            _to_expr(sexpr[2], list_names),
            _to_expr(sexpr[3], list_names - {name}),
        )
    if head == "map":
        _expect(sexpr, 3, "map")
        return Map(_func_expr(sexpr[1], list_names, 1), _to_expr(sexpr[2], list_names))
    if head == "filter":
        _expect(sexpr, 3, "filter")
        return Filter(_func_expr(sexpr[1], list_names, 1), _to_expr(sexpr[2], list_names))
    if head == "foldl":
        _expect(sexpr, 4, "foldl")
        return Fold(
            _func_expr(sexpr[1], list_names, 2),
            _to_expr(sexpr[2], list_names),
            _to_expr(sexpr[3], list_names),
        )
    if head == "snoc":
        _expect(sexpr, 3, "snoc")
        return Snoc(_to_expr(sexpr[1], list_names), _to_expr(sexpr[2], list_names))
    if head == "tuple":
        return MakeTuple(tuple(_to_expr(s, list_names) for s in sexpr[1:]))
    if head == "proj":
        _expect(sexpr, 3, "proj")
        index_tok = sexpr[2]
        if not (isinstance(index_tok, str) and _INT_RE.match(index_tok)):
            raise ParseError("proj index must be an integer literal")
        return Proj(_to_expr(sexpr[1], list_names), _int(index_tok))
    # General application: builtin name or lambda expression in head position.
    args = tuple(_to_expr(s, list_names) for s in sexpr[1:])
    if isinstance(head, str):
        if not is_builtin(head):
            raise ParseError(f"unknown function {head!r}")
        return Call(head, args)
    func = _to_expr(head, list_names)
    if not isinstance(func, Lambda):
        raise ParseError("only builtins and lambdas may be applied")
    return Call(func, args)


def _func_expr(sexpr, list_names: frozenset[str], arity: int) -> Expr:
    """Function position of a combinator: lambdas stay; bare builtin names are
    eta-expanded so downstream passes only see :class:`Lambda` functions."""
    if isinstance(sexpr, str) and is_builtin(sexpr):
        params = tuple(f"_arg{i}" for i in range(1, arity + 1))
        return Lambda(params, Call(sexpr, tuple(Var(p) for p in params)))
    expr = _to_expr(sexpr, list_names)
    if not isinstance(expr, Lambda):
        raise ParseError("combinator function must be a lambda or builtin name")
    return expr


def _expect(sexpr, n: int, what: str) -> None:
    if len(sexpr) != n:
        raise ParseError(f"{what} expects {n - 1} arguments, got {len(sexpr) - 1}")


def parse_expr(text: str, list_names: frozenset[str] = frozenset({"xs"})) -> Expr:
    """Parse a single expression; names in ``list_names`` become ``ListVar``."""
    return _to_expr(_read_one(text, "expression"), list_names)


def parse_program(text: str) -> Program:
    """Parse an offline program ``(lambda (xs extra...) body)``."""
    sexpr = _read_one(text, "program")
    if not (isinstance(sexpr, list) and len(sexpr) == 3 and sexpr[0] == "lambda"):
        raise ParseError("a program must be a top-level (lambda (xs extra...) body) form")
    params = _params(sexpr[1], "program")
    if not params:
        raise ParseError("program needs at least the list parameter")
    list_param, *extra = params
    body = _to_expr(sexpr[2], frozenset({list_param}))
    return Program(list_param, body, tuple(extra))


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_']*$")


def _name_section(sexpr, what: str) -> tuple[str, ...]:
    """Validate a ``(head name...)`` section of the online form."""
    names = sexpr[1:]
    if not names:
        raise ParseError(f"({what} ...) needs at least one name")
    for name in names:
        if not (isinstance(name, str) and _NAME_RE.match(name)):
            raise ParseError(f"({what} ...) entries must be plain names, got {name!r}")
    if len(set(names)) != len(names):
        raise ParseError(f"duplicate name in ({what} ...)")
    return tuple(names)


def parse_online_program(text: str) -> OnlineProgram:
    """Parse the canonical online-program form produced by
    :func:`repro.ir.pretty.online_program_to_sexpr`::

        (online (state y z) (elem x) [(extra a b)] (outputs E1 E2))

    Validation is strict — this is the load path for persisted schemes
    (:mod:`repro.core.serialize`), so malformed or inconsistent input must
    fail loudly rather than produce a scheme that misbehaves at stream time:

    * exactly one output per state parameter;
    * all names are distinct identifiers;
    * every free variable of every output is bound by ``state``/``elem``/
      ``extra``;
    * outputs are genuinely *online* (no list combinators, list variables,
      ``snoc`` or holes — :func:`repro.ir.traversal.validate_online_expr`).
    """
    sexpr = _read_one(text, "online program")
    if not (isinstance(sexpr, list) and sexpr and sexpr[0] == "online"):
        raise ParseError("an online program must be a top-level (online ...) form")
    sections: dict[str, list] = {}
    for section in sexpr[1:]:
        if not (isinstance(section, list) and section and isinstance(section[0], str)):
            raise ParseError("online sections must be (state|elem|extra|outputs ...)")
        head = section[0]
        if head not in ("state", "elem", "extra", "outputs"):
            raise ParseError(f"unknown online section {head!r}")
        if head in sections:
            raise ParseError(f"duplicate online section {head!r}")
        sections[head] = section
    for required in ("state", "elem", "outputs"):
        if required not in sections:
            raise ParseError(f"online program is missing the ({required} ...) section")

    state_params = _name_section(sections["state"], "state")
    elem_names = _name_section(sections["elem"], "elem")
    if len(elem_names) != 1:
        raise ParseError("(elem ...) takes exactly one name")
    elem_param = elem_names[0]
    extra_params = (_name_section(sections["extra"], "extra") if "extra" in sections else ())
    bound = set(state_params) | {elem_param} | set(extra_params)
    if len(bound) != len(state_params) + 1 + len(extra_params):
        raise ParseError("state/elem/extra names must be pairwise distinct")

    raw_outputs = sections["outputs"][1:]
    if len(raw_outputs) != len(state_params):
        raise ParseError(
            f"online program has {len(state_params)} state parameters but "
            f"{len(raw_outputs)} outputs"
        )
    outputs = tuple(_to_expr(s, frozenset()) for s in raw_outputs)

    from .traversal import free_vars, validate_online_expr

    for i, out in enumerate(outputs):
        if not validate_online_expr(out):
            raise ParseError(f"output {i} is not a valid online expression")
        unbound = free_vars(out) - bound
        if unbound:
            raise ParseError(f"output {i} has unbound variables {sorted(unbound)}")
    return OnlineProgram(state_params, elem_param, outputs, extra_params)
