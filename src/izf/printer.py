"""Deterministic pretty-printer generated from the notation table.

A node prints as its template in ``notation`` with every field filled in,
and is bracketed exactly when the level it is seen at from its right is
below the level its position asks for: the fewest brackets that the parser
reads back to an alpha-equal tree.  Each class the notation spells gets one
function ``show(x, need)``, generated on first use: straight-line code that
joins the template's text and fields with ``+`` and enters each child
through the table ``_SHOW``, one frame per nesting level.
"""

from __future__ import annotations

import re
from typing import Callable

from .notation import GROUP, NOTATION, NOTES
from .proofs import Proof
from .syntax import FO_BINDERS, FORMULA, LITERAL, PROOF, SCHEMA, TERM, TERMS, Formula, Term, Tree

_OPEN, _CLOSE = GROUP.split("{x}")
_WORD = re.compile(r"\w*")
_BY_VALUE = {key: (note.right, "".join(note.text)) for key, note in NOTES.items() if key in NOTATION and not isinstance(key, type)}
_PIECES = {  # how the value v of a field prints, by the field's kind; a name prints as itself
    **dict.fromkeys((TERM, FORMULA, PROOF), "_SHOW[{v}.__class__]({v}, {arg})"),
    FO_BINDERS: '(" " + " ".join({v}) if {v} else "")',
    TERMS: '({arg!r} + " " + ", ".join([_SHOW[u.__class__](u, 0) for u in {v}]) if {v} else "")',
    SCHEMA: "_glue(_SHOW[{v}.__class__]({v}, 0), {arg[0]!r})",
    LITERAL: "str({v})",
}


def _glue(s: str, suffix: str) -> str:
    """s with the suffix glued onto its leading word: ``pair`` + ``Rep``."""
    n = _WORD.match(s).end()
    return s[:n] + suffix + s[n:]


def _cannot(x, need: int) -> str:
    raise TypeError(f"cannot print: {x!r}")


def _by_value(x, need: int) -> str:
    right, s = _BY_VALUE.get(x) or _cannot(x, need)
    return _OPEN + s + _CLOSE if right < need else s


def _source(note) -> str:
    """The source of the show function of a class with this note."""
    reads, parts, text = [], [], ""
    for j, p in enumerate(note.text):
        if isinstance(p, str):
            text += p
            continue
        parts += [repr(text)] if text else []
        text = ""
        reads.append(f"  v{j} = x.{p.field}")
        if p.kind is SCHEMA and not p.arg[0]:  # no suffix to glue on
            parts.append(_PIECES[TERM].format(v=f"v{j}", arg=0))
        else:
            parts.append(_PIECES.get(p.kind, "{v}").format(v=f"v{j}", arg=p.arg))
    parts += [repr(text)] if text else []
    return "\n".join(["def show(x, need):", *reads, f"  s = {' + '.join(parts)}",
                      f"  return {_OPEN!r} + s + {_CLOSE!r} if {note.right} < need else s"])


class _Shows(dict):
    """Each class's show function, generated when a node of the class is
    first printed; a class the notation does not spell has no template."""

    def __missing__(self, cls: type):
        if cls not in NOTATION:
            f = _by_value if any(type(k) is cls for k in _BY_VALUE) else _cannot
        else:
            src = _source(NOTES[cls])
            f = _SHOW_SOURCES.get(src)
            if f is None:
                space: dict = {}
                exec(src, {"_SHOW": self, "_glue": _glue}, space)
                f = _SHOW_SOURCES[src] = space["show"]
        self[cls] = f
        return f


_SHOW: dict[type, Callable] = _Shows()
_SHOW_SOURCES: dict[str, Callable] = {}  # generated source -> its compiled function, shared by equal templates


def _print(x, base) -> str:
    if not isinstance(x, base):
        raise TypeError(f"cannot print: {x!r}")
    return _SHOW[x.__class__](x, 0)


def print_term(t: Term) -> str:
    return _print(t, Term)


def print_formula(phi: Formula) -> str:
    return _print(phi, Formula)


def print_proof(m: Proof) -> str:
    return _print(m, Proof)


def print_tree(x: Tree | Proof) -> str:
    """Print a term, a formula or a proof."""
    return _print(x, (Term, Formula, Proof))
