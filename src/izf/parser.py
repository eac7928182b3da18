"""Surface syntax: the tokenizer and a parser read off the notation table.

The file format is a header (optional ``mode nwf .``), followed by theorem
declarations ``thm NAME : FORMULA := PROOF .`` and ``eval``/``realize``
directives.  Later declarations may reference earlier ones by name in proof
position; references are inlined at parse time.

Terms, formulas, axiom identifiers and proofs are read by one precedence
climbing parser over the templates of ``notation``: a template that opens
with a token is chosen by that token, one that opens with an operand of its
own category extends the tree read so far, and the formula relations are
reached through the term they open with.  Reserved words -- every word a
template spells, ``V<n>`` and the axiom words such as ``pairRep`` -- are
never names.  Diagnostics carry line, column and the tokens the parser was
prepared to accept.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .axioms import AxiomId, arity
from .notation import DIRECTIVES, GROUP, KINDS, LEVELS, MODE, MODES, NOTES, THEOREM, TOKEN, Hole, Note
from .proofs import Proof
from .syntax import FO_BINDERS, FORMULA, LITERAL, PROOF, SCHEMA, TERM, TERMS, Formula, Term


@dataclass
class Diagnostic(Exception):
    line: int
    col: int
    message: str
    expected: tuple[str, ...] = ()

    def __str__(self) -> str:
        exp = f" (expected {', '.join(self.expected)})" if self.expected else ""
        return f"{self.line}:{self.col}: {self.message}{exp}"


def _diagnostic(text: str, offset: int, message: str, expected: tuple[str, ...] = ()) -> Diagnostic:
    line = text.count("\n", 0, offset) + 1
    return Diagnostic(line, offset - text.rfind("\n", 0, offset), message, expected)


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, offset)`` for each token, then an ``eof`` token."""
    toks = []
    for m in TOKEN.finditer(text):
        group = m.lastindex
        if group > 1:
            if group == 5:
                raise _diagnostic(text, m.start(), f"unexpected character {m.group()!r}")
            toks.append((KINDS[group - 2], m.group(), m.start()))
    toks.append(("eof", "", len(text)))
    return toks


@dataclass(frozen=True)
class Declaration:
    name: str
    formula: Formula
    proof: Proof


@dataclass(frozen=True)
class TheoremFile:
    mode: str  # "standard" | "nwf"
    declarations: tuple[Declaration, ...]
    directives: tuple[tuple[str, str], ...]  # ("eval"|"realize", name)

    @property
    def nwf(self) -> bool:
        return self.mode == "nwf"


# ---------------------------------------------------------------------------
# Dispatch tables read off the notes


def _starts(note: Note) -> list[str | re.Pattern]:
    """The first tokens of a note: words, or patterns for a family of words."""
    first = note.parts[0]
    if isinstance(first, str):
        return [first]
    if first.kind is LITERAL:
        return [re.compile(re.escape(first.glued) + r"(\d+)")]
    if first.kind is SCHEMA:
        suffix, admitted = first.arg
        out = []
        for cls in admitted:
            for s in _starts(NOTES[cls]):
                out.append(re.compile(s.pattern + suffix) if isinstance(s, re.Pattern) else s + suffix)
        return out
    return []


def _same(a, b) -> bool:
    return a == b if isinstance(a, str) or isinstance(b, str) else (a.kind, a.arg) == (b.kind, b.arg)


class _Choice:
    """Notes that open alike: read their common parts, then let a token decide."""

    def __init__(self, notes: list[Note]):
        k = 0
        while all(_same(n.parts[k], notes[0].parts[k]) for n in notes):
            k += 1
        self.parts, self.k = notes[0].parts[:k], k
        self.by_token = {n.parts[k]: n for n in notes if isinstance(n.parts[k], str)}
        self.default = next((n for n in notes if isinstance(n.parts[k], Hole)), None)


_CATS = ("term", "formula", "axiom", "proof")
_NUD: dict[str, list[dict]] = {c: [] for c in _CATS}  # level asked for -> first token -> note or choice
_PATTERNS: dict[str, list] = {c: [] for c in _CATS}  # (pattern for a family of first tokens, note)
_NAME: dict[str, Note] = {}  # the note of a bare name
_LED: dict[str, dict[str, Note]] = {c: {} for c in _CATS}  # an operand, then this token
_JUXT: dict[str, Note] = {}  # an operand, then another
_VIA: dict[str, _Choice] = {}  # an operand of another category, then a token

_notes = list(NOTES.values())
_OPEN, _CLOSE = GROUP.split("{x}")
for _cat, _kind in (("term", TERM), ("formula", FORMULA), ("proof", PROOF)):
    _top = len(LEVELS[_cat]) - 1
    _notes.append(Note(_cat, _top, _top, (_OPEN, Hole("x", _kind, _cat, 0), _CLOSE), (), lambda x: x))
_relations: dict[str, list[Note]] = {}
for _note in _notes:
    _first = _note.parts[0]
    if isinstance(_first, str) or _first.kind in (LITERAL, SCHEMA):
        continue
    if _first.cat != _note.cat:
        _relations.setdefault(_note.cat, []).append(_note)
    elif _first.kind not in (TERM, FORMULA, PROOF):
        _NAME[_note.cat] = _note
    elif isinstance(_note.parts[1], str):
        _LED[_note.cat][_note.parts[1]] = _note
    else:
        _JUXT[_note.cat] = _note
_VIA = {c: _Choice(ns) for c, ns in _relations.items()}
for _cat in _CATS:
    for _need in range(len(LEVELS[_cat])):
        _keyed: dict[str, list[Note]] = {}
        for _note in _notes:
            if _note.cat == _cat and _note.level >= _need:
                for _s in _starts(_note):
                    if isinstance(_s, str):
                        _keyed.setdefault(_s, []).append(_note)
                    elif _need == 0:
                        _PATTERNS[_cat].append((_s, _note))
        _NUD[_cat].append({k: v[0] if len(v) == 1 else _Choice(v) for k, v in _keyed.items()})

# Reserved words: every word the term, formula and proof notes open with or
# spell, and the words of the declarations; V<n>, numerals and the axiom
# words of inaccessibles come as patterns.
KEYWORDS = frozenset({MODE, *MODES, THEOREM, *DIRECTIVES}) | {
    w
    for n in _notes
    if n.cat != "axiom"
    for w in (*(p for p in n.parts if isinstance(p, str)), *(s for s in _starts(n) if isinstance(s, str)))
    if w[0].isalpha()
}
RESERVED = re.compile("|".join(p.pattern for c in ("term", "formula", "proof") for p, _ in _PATTERNS[c]))


def reserved(word: str) -> bool:
    """Whether a word is spelled by the notation, and so cannot be a name."""
    return word in KEYWORDS or RESERVED.fullmatch(word) is not None


# ---------------------------------------------------------------------------
# The parser


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.pos = 0
        self.table: dict[str, Proof] = {}

    def error(self, message: str, expected: tuple[str, ...] = (), pos: int | None = None):
        tok = self.toks[self.pos if pos is None else pos]
        return _diagnostic(self.text, tok[2], message, expected)

    def fail(self, what: str):
        raise self.error(f"found {self.toks[self.pos][1] or 'end of input'!r}", (what,))

    def expect(self, word: str) -> None:
        if self.toks[self.pos][1] != word:
            self.fail(word if word[0].isalpha() else repr(word))
        self.pos += 1

    def name(self, what: str = "name") -> str:
        kind, text, _ = self.toks[self.pos]
        if kind != "ident":
            self.fail(what)
        if reserved(text):
            raise self.error(f"reserved word {text!r} cannot be a name", (what,))
        self.pos += 1
        return text

    # -- precedence climbing

    def parse(self, cat: str, need: int = 0, suffix: str = ""):
        """Read one tree of the category that may stand at level ``need``.

        With a suffix, the tree opens with a word glued to it (``pairRep``).
        """
        toks = self.toks
        start = self.pos
        kind, text, _ = toks[start]
        word = text[: len(text) - len(suffix)]
        note, vals = _NUD[cat][need].get(word), []
        if note is None:
            for p, n in _PATTERNS[cat]:
                m = p.fullmatch(word) if n.level >= need else None
                if m:  # an integer glued to the word, or an axiom's word glued to a suffix
                    note, vals = n, [int(m.group(1))] if n.parts[0].kind is LITERAL else []
                    break
        if note is None:
            if kind == "ident" and cat in _NAME and not reserved(text):
                self.pos += 1
                have = _NAME[cat].right
                left = self.table[text] if cat == "proof" and text in self.table else _NAME[cat].build(text)
            elif cat in _VIA:
                note = _VIA[cat]
            else:
                self.fail(cat)
        if note is not None:
            parts = note.parts
            if vals or parts[0].__class__ is str:  # the opening word is read here
                self.pos += 1
                parts = parts[1:]
        leds, juxt = _LED[cat], _JUXT.get(cat)
        while True:
            while note is not None:
                for part in parts:
                    if part.__class__ is str:
                        if toks[self.pos][1] != part:
                            self.fail(part if part[0].isalpha() else repr(part))
                        self.pos += 1
                    elif part.kind is PROOF or part.kind is FORMULA or part.kind is TERM:
                        vals.append(self.parse(part.cat, part.arg))
                    elif part.kind is SCHEMA:
                        vals.append(self.parse("axiom", 0, part.arg[0]))
                    else:
                        vals.append(self.hole(part, vals))
                if note.__class__ is _Choice:
                    choice, note = note, note.by_token.get(toks[self.pos][1], note.default)
                    if note is None:
                        raise self.error(f"found {toks[self.pos][1] or 'end of input'!r}",
                                         tuple(map(repr, choice.by_token)))
                    parts = note.parts[choice.k:]
                    continue
                try:
                    left = note.build(*vals)
                except ValueError as e:
                    raise self.error(str(e), pos=start) from None
                note, have = None, note.right
            note = leds.get(toks[self.pos][1])
            if note is None and juxt is not None and self.starts(cat, juxt.parts[1].arg):
                note = juxt
            if note is None or note.level < need or have < note.parts[0].arg:
                return left
            vals, parts = [left], note.parts[1:]

    def starts(self, cat: str, level: int) -> bool:
        kind, text, _ = self.toks[self.pos]
        if text in _NUD[cat][level] or any(p.fullmatch(text) for p, _ in _PATTERNS[cat]):
            return True
        return kind == "ident" and cat in _NAME and not reserved(text)

    def hole(self, part: Hole, vals: list):
        """A field that is not a term, a formula, a proof or an axiom."""
        if part.kind is FO_BINDERS:
            names = []
            while self.toks[self.pos][0] == "ident":
                names.append(self.name(part.kind.value))
            return tuple(names)
        if part.kind is not TERMS:
            return self.name(part.kind.value)
        out = []
        if part.arg == ",":  # as many as the node's axiom takes
            for _ in range(arity(next(v for v in vals if isinstance(v, AxiomId)))):
                self.expect(",")
                out.append(self.parse("term"))
        elif self.toks[self.pos][1] == part.arg:
            self.pos += 1
            out.append(self.parse("term"))
            while self.toks[self.pos][1] == ",":
                self.pos += 1
                out.append(self.parse("term"))
        return tuple(out)

    # -- declarations

    def file(self) -> TheoremFile:
        mode = MODES[0]
        if self.toks[self.pos][1] == MODE:
            self.pos += 1
            if self.toks[self.pos][1] not in MODES:
                self.fail(f"mode name ({' or '.join(MODES)})")
            mode = self.toks[self.pos][1]
            self.pos += 1
            self.expect(".")
        decls: list[Declaration] = []
        directives: list[tuple[str, str]] = []
        while self.toks[self.pos][0] != "eof":
            word = self.toks[self.pos][1]
            if word not in (THEOREM, *DIRECTIVES):
                self.fail(f"declaration ({THEOREM}, {', '.join(DIRECTIVES)}) or end of file")
            self.pos += 1
            name = self.name("theorem name")
            if word == THEOREM:
                if name in self.table:
                    raise self.error(f"duplicate theorem name {name!r}")
                self.expect(":")
                phi = self.parse("formula")
                self.expect(":=")
                prf = self.parse("proof")
                self.table[name] = prf
                decls.append(Declaration(name, phi, prf))
            elif name in self.table:
                directives.append((word, name))
            else:
                raise self.error(f"directive names unknown theorem {name!r}")
            self.expect(".")
        return TheoremFile(mode, tuple(decls), tuple(directives))


def _run(text: str, read):
    """Apply one reader to the whole text.

    Nesting deeper than the interpreter's stack comes back as a Diagnostic
    at the token the parser had reached.
    """
    p = _Parser(text)
    try:
        out = read(p)
    except RecursionError:
        raise p.error("nesting too deep") from None
    if p.toks[p.pos][0] != "eof":
        p.fail("end of input")
    return out


def parse(text: str) -> TheoremFile:
    """Parse a theorem file, raising Diagnostic on bad input."""
    return _run(text, _Parser.file)


def parse_formula(text: str) -> Formula:
    return _run(text, lambda p: p.parse("formula"))


def parse_term(text: str) -> Term:
    return _run(text, lambda p: p.parse("term"))


def parse_proof(text: str) -> Proof:
    return _run(text, lambda p: p.parse("proof"))


def parse_axiom(text: str) -> AxiomId:
    """An axiom identifier as ``izf axiom`` names it: ``pair``, ``inac2``, ``sep[z a | z in a]``."""
    return _run(text, lambda p: p.parse("axiom"))
