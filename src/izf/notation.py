"""The surface syntax, declared once.

``NOTATION`` spells every printable constructor -- set terms, formulas,
axiom identifiers and annotated proofs -- as a template: the text of the
construct with each field written ``{field}``, in field order.  The kind of
a field comes from ``syntax.SHAPES``, and ``{field:spec}`` adds what the kind
leaves open:

* a formula or proof operand names the precedence level it is read at; the
  default is the weakest, as between brackets;
* a term tuple names the token that introduces it: ``;`` for an optional
  comma-separated list, ``,`` for exactly as many terms as the node's axiom
  takes (``axioms.arity``);
* an axiom identifier names the suffix glued to its word (``pairRep``); it
  reads every identifier, or only the class ``_ADMITS`` names for it.

An integer field is glued to the word before it (``V3``, ``inac2``, ``17``).
A construct with a level says where it may stand; one that ends in an open
operand is seen from its right at that operand's level, so it is bracketed
before anything that follows it.  ``SUGAR`` spells the abbreviations
(numerals, ``S(t)``, ``<->``), each keyed by the function of ``syntax`` that
builds the core syntax it stands for; they are read but never printed.
``printer`` fills the templates in and ``parser`` reads them back.

The tokens are read off the same table: ``TOKEN`` finds them and the
comments, skipping blanks, and ``key`` gives each word the class the parser
looks it up by -- the word itself for a symbol, a reserved word or an axiom
word, its family's key for a numbered word (``V3`` is ``V<n>``), ``NAME`` for
any other identifier and ``BAD`` for a character no token has.
"""

from __future__ import annotations

import re
import typing
from string import Formatter

from . import axioms as ax
from . import proofs as pr
from . import syntax as sx
from .syntax import FORMULA, LITERAL, PROOF, SCHEMA, SHAPES, TERM, TERMS

# Longer symbols first: the tokenizer tries them in this order.
SYMBOLS = (":=", "<->", "->", "/\\", "\\/", "=>", "{", "}", "(", ")", "[", "]", ",", ";", ".", ":", "|", "=", "@")
# An identifier, an integer, a comment, a symbol or any other non-blank
# character; blanks match nothing, and a comment is the only match that
# starts with "--".
TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|\d+|--[^\n]*|" + "|".join(map(re.escape, SYMBOLS)) + r"|\S")
GROUP = "({x})"  # any term, formula or proof, bracketed
# The words of the file format: its header and modes, theorems and directives.
MODE, MODES, THEOREM, DIRECTIVES = "mode", ("standard", "nwf"), "thm", ("eval", "realize")

# Precedence levels of each category, weakest first.
LEVELS = {
    "term": ("atom",),
    "formula": ("quant", "iff", "imp", "or", "and", "atom"),
    "axiom": ("atom",),
    "proof": ("lam", "app", "atom"),
}

# A constant with a field is keyed by its value (nwfC).
NOTATION: dict = {
    sx.Var: "{name}",
    sx.Empty: "empty",
    sx.Omega: "omega",
    sx.Inac: "V{index}",
    sx.NwfConst("C"): "nwfC",
    sx.NwfConst("D"): "nwfD",
    sx.PairT: "{{{left}, {right}}}",
    sx.UnionT: "union {arg}",
    sx.PowerT: "power {arg}",
    sx.Sep: "sep[{binder}{params} | {body}]({carrier}{args:;})",
    sx.Repl: "repl[{binder1} {binder2}{params} | {body}]({carrier}{args:;})",
    sx.Bottom: "bot",
    sx.MemI: "{left} ini {right}",
    sx.Mem: "{left} in {right}",
    sx.Eq: "{left} = {right}",
    sx.And: ("and", "{left:atom} /\\ {right:and}"),
    sx.Or: ("or", "{left:and} \\/ {right:or}"),
    sx.Imp: ("imp", "{left:or} -> {right:imp}"),
    sx.Forall: "forall {binder}, {body}",
    sx.Exists: "exists {binder}, {body}",
    ax.EmptyAx: "empty",
    ax.PairAx: "pair",
    ax.InfAx: "inf",
    ax.UnionAx: "union",
    ax.PowerAx: "power",
    ax.InAx: "in",
    ax.EqAx: "eq",
    ax.NwfAx: "n",
    ax.Sep0Ax: "s",
    ax.InacAx: "inac{index}",
    ax.SepAx: "sep[{binder}{params} | {body}]",
    ax.ReplAx: "repl[{binder1} {binder2}{params} | {body}]",
    ax.IndAx: "ind[{binder}{params} | {body}]",
    pr.PropVar: "{name}",
    pr.LamP: ("lam", "fun ({var} : {dom}) => {body}"),
    pr.LamF: ("lam", "fun {var} => {body}"),
    pr.Let: ("lam", "let [{fvar}, {pvar} : {ann}] := {subject} in {body}"),
    pr.App: ("app", "{fn:app} {arg:atom}"),
    pr.AppT: ("app", "{fn:app} @{arg}"),
    pr.PairP: "({left}, {right})",
    pr.Fst: "fst({arg})",
    pr.Snd: "snd({arg})",
    pr.Inl: "inl({body} : {ann})",
    pr.Inr: "inr({body} : {ann})",
    pr.Magic: "magic({arg} : {ann})",
    pr.ExIntro: "[{witness}, {body} : {ann}]",
    pr.Case: "case {scrut:app} of {{ {lvar} : {lann} => {lbody} ; {rvar} : {rann} => {rbody} }}",
    pr.Ind: "{schema}({arg}{terms:;})",
    pr.AxRep: "{ax:Rep}({term}{args:,}, {arg})",
    pr.AxProp: "{ax:Prop}({term}{args:,}, {arg})",
}

# Abbreviations, read but never printed: each is built by its reader as the
# core syntax it stands for, and spelled with its category, its template and
# its fields' kinds.
SUGAR: dict = {
    sx.numeral: ("term", "{value}", {"value": LITERAL}),
    sx.succ_term: ("term", "S({arg})", {"arg": TERM}),
    sx.iff: ("formula", ("iff", "{left:imp} <-> {right:imp}"), {"left": FORMULA, "right": FORMULA}),
}
_READERS = {sx.Inac: sx.v_index}  # V0 is omega
_ADMITS = {pr.Ind: ax.IndAx}  # the identifiers an axiom field reads, where not every one


class Hole(typing.NamedTuple):
    """A field as a template spells it."""

    field: str
    kind: sx.Kind
    cat: str  # the category it is read in
    arg: object  # the level read at, a tuple's leading token, or (suffix, admitted classes)
    glued: str = ""  # the word an integer is glued to


class Note(typing.NamedTuple):
    """A constructor's template, compiled."""

    cat: str
    level: int
    right: int  # the level it is seen at from its right
    parts: tuple  # the tokens it spells (str) and its holes, in order
    text: tuple  # the same for printing: literal text (str) and holes
    build: typing.Callable


def _category(cls: type) -> str:
    for base, cat in ((sx.Term, "term"), (sx.Formula, "formula"), (ax.AxiomId, "axiom"), (pr.Proof, "proof")):
        if issubclass(cls, base):
            return cat
    raise TypeError(cls)


_HOLE_CAT = {TERM: "term", TERMS: "term", FORMULA: "formula", PROOF: "proof", SCHEMA: "axiom"}


def _note(key, spec, build, kinds: dict, cat: str) -> Note:
    """Compile the template of a constructor, constant or reader whose fields have these kinds."""
    level, template = spec if isinstance(spec, tuple) else ("atom", spec)
    level = LEVELS[cat].index(level)
    parts, text = [], []
    for lit, field, fspec, _ in Formatter().parse(template):
        toks = TOKEN.findall(lit)
        text += [lit] if lit else []
        if field is None:
            parts += toks
            continue
        kind, glued = kinds[field], ""
        if kind is LITERAL and toks and lit[-1].isalnum():
            glued = toks.pop()
        parts += toks
        hcat = _HOLE_CAT.get(kind, cat)
        if kind in (TERM, FORMULA, PROOF):
            arg = LEVELS[hcat].index(fspec) if fspec else 0
        elif kind is SCHEMA:
            admits = _ADMITS.get(key, ax.AxiomId)
            arg = (fspec, tuple(c for c in NOTATION if isinstance(c, type) and issubclass(c, admits)))
        else:
            arg = fspec
        hole = Hole(field, kind, hcat, arg, glued)
        parts.append(hole)
        text.append(hole)
    if [h.field for h in parts if isinstance(h, Hole)] != list(kinds):
        raise ValueError(f"the template of {key!r} must spell each of its fields once, in order")
    last = text[-1]
    right = min(level, last.arg) if isinstance(last, Hole) and last.kind in (FORMULA, PROOF) else level
    return Note(cat, level, right, tuple(parts), tuple(text), build)


def _constant(x):
    return lambda: x


NOTES: dict = {}
for _key, _spec in NOTATION.items():
    if isinstance(_key, type):
        _kinds = {f.name: f.kind for f in SHAPES[_key].fields}
        NOTES[_key] = _note(_key, _spec, _READERS.get(_key, _key), _kinds, _category(_key))
    else:
        NOTES[_key] = _note(_key, _spec, _constant(_key), {}, _category(type(_key)))
for _key, (_cat, _spec, _kinds) in SUGAR.items():
    NOTES[_key] = _note(_key, _spec, _key, _kinds, _cat)


def family(x: ax.AxiomId) -> str:
    """An axiom identifier's family tag, the ``family`` of its erased
    rep/prop: the word its template starts with, an inaccessible's index
    glued on (``inac2``)."""
    first = NOTES[type(x)].parts[0]
    return first if isinstance(first, str) else first.glued + str(getattr(x, first.field))


# ---------------------------------------------------------------------------
# Token classes: the key a word is looked up by


N = "<n>"  # the integer in the key of a numbered family's word: V<n>, <n>, inac<n>Rep
NAME, BAD, EOF = "<name>", "<bad>", "<eof>"  # any other identifier, any other character, the end
IDENT = re.compile(r"[A-Za-z_]")  # the start of an identifier


def starts(note: Note, suffix: str = "") -> list[str]:
    """The keys of a note's first token: its word, or its numbered family."""
    first = note.parts[0]
    if isinstance(first, str):
        return [first + suffix]
    if first.kind is LITERAL:
        return [first.glued + N + suffix]
    if first.kind is SCHEMA:
        return [s for cls in first.arg[1] for s in starts(NOTES[cls], first.arg[0])]
    return []


# Reserved words: every word the term, formula and proof notes open with or
# spell, and the words of the declarations.  The numbered families those
# notes open with are reserved too; an axiom word that is neither (``pair``,
# ``inac<n>``) may be a name.
KEYWORDS = frozenset({MODE, *MODES, THEOREM, *DIRECTIVES}) | {
    w for n in NOTES.values() if n.cat != "axiom" for w in (*(p for p in n.parts if isinstance(p, str)), *starts(n))
    if w[0].isalpha() and N not in w
}
NUMBERED = tuple(dict.fromkeys(  # in category order, as the parser's tests draw them
    s for c in ("term", "formula", "proof") for n in NOTES.values() if n.cat == c for s in starts(n) if N in s
))
SUFFIXES = tuple(dict.fromkeys(  # the suffixes glued to axiom words, and none
    ("", *(h.arg[0] for n in NOTES.values() for h in n.parts if getattr(h, "kind", 0) is SCHEMA))
))
_KEYS = {  # every word that is its own key and every numbered family -> whether its words may be names
    **{s: True for n in NOTES.values() if n.cat == "axiom" for x in SUFFIXES for s in starts(n, x)},
    **dict.fromkeys((*SYMBOLS, *KEYWORDS, *NUMBERED), False)}
NAMES = frozenset({NAME, *(k for k, name in _KEYS.items() if name)})  # the keys of a word that may be a name
_DIGITS = re.compile(r"\d+")


def key(word: str) -> str:
    """A token's key: a symbol, reserved word or axiom word is its own key,
    a numbered word has its family's (``V3`` is ``V<n>``), any other
    identifier is ``NAME`` and any other character ``BAD``."""
    if word in _KEYS:
        return word
    family = _DIGITS.sub(N, word, 1)
    return family if family in _KEYS else NAME if IDENT.match(word) else BAD
