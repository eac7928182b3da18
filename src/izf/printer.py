"""Deterministic pretty-printer read off the notation table.

A node prints as its template in ``notation`` with every field filled in.
An operand is bracketed exactly when the level it is seen at from its right
is below the level its position asks for, which gives the fewest brackets
that the parser reads back to an alpha-equal tree.
"""

from __future__ import annotations

import re

from .notation import GROUP, NOTATION, NOTES
from .proofs import Proof
from .syntax import FO_BINDERS, FORMULA, PROOF, SCHEMA, TERM, TERMS, Formula, Term, Tree

_OPEN, _CLOSE = GROUP.split("{x}")
_WORD = re.compile(r"\w*")


def _piece(h):
    """How one field prints: (field, level, None) for a tree, read by ``_show``,
    or (field, 0, function of the value)."""
    if h.kind in (TERM, FORMULA, PROOF):
        return h.field, h.arg, None
    if h.kind is FO_BINDERS:
        return h.field, 0, lambda v: "".join(" " + b for b in v)
    if h.kind is TERMS:
        return h.field, 0, lambda v: f"{h.arg} " + ", ".join(map(_show, v)) if v else ""
    if h.kind is SCHEMA:
        return h.field, 0, lambda v: _WORD.sub(r"\g<0>" + h.arg[0], _show(v), 1)  # pairRep
    return h.field, 0, str  # a name or an integer


def _show(x, need: int = 0) -> str:
    entry = _PIECES.get(type(x)) or _PIECES.get(x)  # constants are spelled by value
    if entry is None:
        raise TypeError(f"cannot print: {x!r}")
    right, pieces = entry
    out = []
    for p in pieces:  # a loop, not a comprehension: one frame per level of nesting
        if p.__class__ is str:
            out.append(p)
        elif p[2] is None:
            out.append(_show(getattr(x, p[0]), p[1]))
        else:
            out.append(p[2](getattr(x, p[0])))
    s = "".join(out)
    return _OPEN + s + _CLOSE if right < need else s


_PIECES = {
    key: (note.right, tuple(p if isinstance(p, str) else _piece(p) for p in note.text))
    for key, note in NOTES.items()
    if key in NOTATION
}


def _print(x, base) -> str:
    if not isinstance(x, base):
        raise TypeError(f"cannot print: {x!r}")
    return _show(x)


def print_term(t: Term) -> str:
    return _print(t, Term)


def print_formula(phi: Formula) -> str:
    return _print(phi, Formula)


def print_proof(m: Proof) -> str:
    return _print(m, Proof)


def print_tree(x: Tree | Proof) -> str:
    """Print a term, a formula or a proof."""
    return _print(x, (Term, Formula, Proof))
