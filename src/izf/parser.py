"""Surface syntax: a Pratt parser compiled from the notation table.

The file format is a header (optional ``mode nwf .``), followed by theorem
declarations ``thm NAME : FORMULA := PROOF .`` and ``eval``/``realize``
directives.  Later declarations may reference earlier ones by name in proof
position; references are inlined at parse time.

A token is looked up by its class, ``notation.key`` of its word, worked out
once per distinct word of a text: a symbol, reserved word or axiom word is
its own class, a numbered word has its family's (``V<n>``, ``<n>``,
``inac<n>Rep``) and any other identifier is ``NAME``.  Per category and
level, a prefix table maps a class to the handler of the construct that
token opens, and an infix table to the handler of a construct that extends
the tree read so far (Pratt, *Top Down Operator Precedence*, POPL 1973).  A
handler is Python generated from its template when a text first needs it;
it reads each operand through the operand's tables inline, so a nesting
level costs one frame.  Reserved words -- every word a template spells,
``V<n>`` and the axiom words such as ``pairRep`` -- are never names.
Diagnostics carry line, column and the tokens the parser was prepared to
accept.  A handler returns the node its parse built before from the same
build and operands (nodes by identity), so equal nodes of one parse are one
object; the table dies with the parse (Filliâtre & Conchon, ML 2006).
"""

from __future__ import annotations

from itertools import islice

from .axioms import AxiomId, arity
from .notation import BAD, DIRECTIVES, EOF, GROUP, IDENT, LEVELS, MODE, MODES, NAMES, NOTES, SUFFIXES
from .notation import THEOREM, TOKEN, Hole, Note, key, starts
from .proofs import Proof
from .syntax import FO_BINDERS, FORMULA, LITERAL, PROOF, SCHEMA, TERM, TERMS, Formula, Term, record


@record(frozen=False)
class Diagnostic(Exception):
    line: int
    col: int
    message: str
    expected: tuple[str, ...] = ()

    def __str__(self) -> str:
        exp = f" (expected {', '.join(self.expected)})" if self.expected else ""
        return f"{self.line}:{self.col}: {self.message}{exp}"


def _diagnostic(text: str, i: int, message: str, expected: tuple[str, ...] = ()) -> Diagnostic:
    """A diagnostic at the i-th token of a text (its end, past the last)."""
    offsets = (m.start() for m in TOKEN.finditer(text) if not m[0].startswith("--"))
    offset = next(islice(offsets, i, None), len(text))
    line = text.count("\n", 0, offset) + 1
    return Diagnostic(line, offset - text.rfind("\n", 0, offset), message, expected)


@record()
class Declaration:
    name: str
    formula: Formula
    proof: Proof


@record()
class TheoremFile:
    mode: str  # "standard" | "nwf"
    declarations: tuple[Declaration, ...]
    directives: tuple[tuple[str, str], ...]  # ("eval"|"realize", name)

    @property
    def nwf(self) -> bool:
        return self.mode == "nwf"


# ---------------------------------------------------------------------------
# Tokens, and the notes sorted by how they open

_CATS = ("term", "formula", "axiom", "proof")


def tokenize(text: str) -> tuple[list[str], list[str]]:
    """The words of a text and their keys, each list ending with the end of input."""
    words = TOKEN.findall(text)
    if "--" in text:  # drop the comments
        words = [w for w in words if not w.startswith("--")]
    kinds = {w: key(w) for w in {*words}}  # each distinct word classified once
    keys = [*map(kinds.__getitem__, words)]
    _make(kinds.values())  # the table entries of classes that no text has had before
    if BAD in keys:
        i = keys.index(BAD)
        raise _diagnostic(text, i, f"unexpected character {words[i]!r}")
    return [*words, ""], [*keys, EOF]


_notes = list(NOTES.values())
_OPEN, _CLOSE = GROUP.split("{x}")
for _cat, _kind in (("term", TERM), ("formula", FORMULA), ("proof", PROOF)):
    _top = len(LEVELS[_cat]) - 1
    _notes.append(Note(_cat, _top, _top, (_OPEN, Hole("x", _kind, _cat, 0), _CLOSE), (), lambda x: x))
_PREFIX: dict[str, list[Note]] = {c: [] for c in _CATS}  # opened by a token
_INFIX: dict[str, dict] = {c: {} for c in _CATS}  # an operand, then this word (None: another operand)
_NAME: dict[str, Note] = {}  # a bare name
_VIA: dict[str, list[Note]] = {}  # an operand of another category, then a word
for _note in _notes:
    _first = _note.parts[0]
    if isinstance(_first, str) or _first.kind in (LITERAL, SCHEMA):
        _PREFIX[_note.cat].append(_note)
    elif _first.cat != _note.cat:
        _VIA.setdefault(_note.cat, []).append(_note)
    elif _first.kind not in (TERM, FORMULA, PROOF):
        _NAME[_note.cat] = _note
    else:
        _INFIX[_note.cat][_note.parts[1] if isinstance(_note.parts[1], str) else None] = _note


# ---------------------------------------------------------------------------
# The Pratt tables.  A handler is entered with ``p.pos`` at the token that chose
# it (a prefix) or at the operator after the operand ``x`` (an infix); it
# reads its template and leaves ``p.pos`` after it.  A ValueError of a build
# (``inac0``, a numeral above the bound, a separation's parameters and
# arguments apart) is a diagnostic at that token.

_P = {c: [{} for _ in LEVELS[c]] for c in _CATS}  # key -> (handler, level seen from its right)
_I = {c: [{} for _ in LEVELS[c]] for c in _CATS}  # key -> (handler, level on its left, on its right)
_A: dict[str, dict] = {x: {} for x in SUFFIXES}  # an axiom's word, the suffix glued on -> (handler,)
_D = {c: (lambda p, w, k, c=c: p.miss(p.pos, (c,)), 0) for c in _CATS}  # for a key no table has
_LATER: dict[str, list] = {}  # key -> (table, entry maker) for the entries no text has needed yet
_NS: dict = {"arity": arity}  # the generated code's globals
_SHAPES: dict = {}  # generated source -> its compiled factory
_HANDLERS: dict = {}  # (notes, suffix, infix) -> handler


class _Emit:
    """The source of one handler.  The objects it uses come in as ``c0``,
    ``c1``, ..., so that the notes of one shape share one compilation."""

    def __init__(self, head: str):
        self.out, self.consts = [f" def h({head}):", "  s = p.pos"], []

    def c(self, x) -> str:
        self.consts.append(x)
        return f"c{len(self.consts) - 1}"

    def site(self, ind: str, v: str, cat: str, need) -> None:
        """Read an operand into ``v``: dispatch on its first token, extend it while an infix applies."""
        if cat == "axiom":
            return self.out.append(f"{ind}{v} = {self.c(_A[need])}.get(k[p.pos], {self.c(_D[cat])})[0](p, w, k)")
        self.out.append(f"{ind}h, r = {self.c(_P[cat][need])}.get(k[p.pos], {self.c(_D[cat])}); {v} = h(p, w, k)")
        if any(n.level >= need for n in _INFIX[cat].values()):
            i = self.c(_I[cat][need])
            self.out.append(f"{ind}while (e := {i}.get(k[p.pos])) and r >= e[1]: {v}, r = e[0](p, w, k, {v}), e[2]")

    def read(self, ind: str, alts: list, args: list, suffix: str, lead: bool) -> None:
        """Read the rest of ``alts``, (note, parts left) pairs that agree on the parts read into
        ``args``; with ``lead``, the table lookup has matched the next part."""
        out, c = self.out, self.c
        while True:
            note, parts = alts[0]
            if not parts:
                build, keys = c(note.build), ", ".join(key for _, key in args)
                return out.extend([f"{ind}n = p.nodes.get(q := ({build}, {keys}))", f"{ind}if n is None:",
                                   f"{ind} try: n = p.nodes[q] = {build}({', '.join(v for v, _ in args)})",
                                   f"{ind} except ValueError as x: raise {c(_diagnostic)}(p.text, s, str(x)) from None",
                                   f"{ind}return n"])
            if len({p[0] if isinstance(p[0], str) else p[0][1:] for _, p in alts}) > 1:  # a word decides
                words = {p[0]: (n, p[1:]) for n, p in alts if isinstance(p[0], str)}
                for j, (word, alt) in enumerate(words.items()):
                    out += [f"{ind}{'el' * (j > 0)}if w[p.pos] == {c(word)}:", f"{ind} p.pos += 1"]
                    self.read(ind + " ", [alt], list(args), suffix, False)
                out.append(f"{ind}else:")
                rest = [(n, p) for n, p in alts if not isinstance(p[0], str)][:1]
                if rest:
                    return self.read(ind + " ", rest, args, suffix, False)
                return out.append(f"{ind} p.miss(p.pos, {c(tuple(map(repr, words)))})")
            part, v = parts[0], f"v{len(args)}"
            alts = [(n, p[1:]) for n, p in alts]
            if isinstance(part, str):
                label = part if part[0].isalpha() else repr(part)
                out += [] if lead else [f"{ind}if w[p.pos] != {c(part)}: p.miss(p.pos, {c((label,))})"]
                out.append(f"{ind}p.pos += 1")
            elif part.kind is LITERAL:  # the integer glued to the word, keyed by the word
                out.append(f"{ind}{v} = p.pos; p.pos += 1")
                v, key = f"int(w[{v}][{len(part.glued)}:len(w[{v}]) - {len(suffix)}])", f"w[{v}]"
            elif part.kind is SCHEMA:
                self.site(ind, v, "axiom", part.arg[0])
                key = f"id({v})"
            elif part.kind is TERMS:  # as many as the node's axiom takes, or a list after a word
                holes = [h for h in note.parts if not isinstance(h, str)]
                count = f"arity({args[[h.kind for h in holes].index(SCHEMA)][0]})" if part.arg == "," else None
                out.append(f"{ind}{v} = p.terms({c(part.arg)}, {count})")
                key = f"tuple(map(id, {v}))"
            elif part.kind is FO_BINDERS:  # every identifier that follows
                out.append(f"{ind}{v} = []")
                out.append(f"{ind}while {c(IDENT)}.match(w[p.pos]): {v}.append(p.name({c(part.kind.value)}))")
                out.append(f"{ind}{v} = tuple({v})")
                key = v
            elif part.kind in (TERM, FORMULA, PROOF):
                self.site(ind, v, part.cat, part.arg)
                key = f"id({v})"
            else:  # a name
                out.append(f"{ind}{v} = " + ("w[p.pos]; p.pos += 1" if lead else f"p.name({c(part.kind.value)})"))
                key = v
            args += [] if isinstance(part, str) else [(v, key)]
            lead = False

    def compile(self):
        head = f"def make({', '.join(f'c{j}' for j in range(len(self.consts)))}):"
        src = "\n".join([head, *self.out, " return h"])
        if src not in _SHAPES:
            space: dict = {}  # its own, for two threads that read a text each
            exec(src, _NS, space)
            _SHAPES[src] = space["make"]
        return _SHAPES[src](*self.consts)


def _handler(notes: list[Note], suffix: str = "", infix: bool = False):
    """The handler of the notes that open with one token, or of one infix note."""
    at = (*notes, suffix, infix)
    if at not in _HANDLERS:
        if len({n.right for n in notes}) > 1:
            raise ValueError(f"notes that open alike must be seen alike from their right: {notes}")
        gen = _Emit("p, w, k, x" if infix else "p, w, k")
        gen.read("  ", [(n, n.parts[infix:]) for n in notes], [("x", "id(x)")] if infix else [], suffix, True)
        _HANDLERS[at] = gen.compile()
    return _HANDLERS[at]


def _reference(p, w, k):
    """A name in proof position: an earlier theorem of the file, inlined, or a hypothesis."""
    name = w[p.pos]
    p.pos += 1
    m = p.table.get(name) or p.nodes.get(q := (_NAME["proof"].build, name))
    if m is None:
        m = p.nodes[q] = q[0](name)
    return m


def _later(table: dict, keys, make) -> None:
    """Put ``make()`` into ``table`` at each key before a text first has it."""
    for key in keys:
        _LATER.setdefault(key, []).append((table, make))


def _make(keys) -> None:
    """Make the table entries for the keys a text has and no text had before."""
    for key in _LATER.keys() & keys:
        for table, make in _LATER.get(key, ()):
            table[key] = make()
        _LATER.pop(key, None)  # after the tables are filled, for a parse in another thread


_D["formula"] = (_handler(_VIA["formula"]), _VIA["formula"][0].right)
for _suffix, _table in _A.items():
    for _note in _PREFIX["axiom"]:
        _later(_table, starts(_note, _suffix), lambda n=_note, x=_suffix: (_handler([n], x),))
_opens: dict = {}  # (category, level) -> the keys that open a tree there
for _cat in ("term", "formula", "proof"):
    for _need, _table in enumerate(_P[_cat]):
        _keyed: dict[str, list[Note]] = {}
        for _note in _PREFIX[_cat]:
            for _s in starts(_note) if _note.level >= _need else ():
                _keyed.setdefault(_s, []).append(_note)
        for _s, _ns in _keyed.items():
            _later(_table, [_s], lambda ns=_ns: (_handler(ns), ns[0].right))
        if _cat in _NAME:
            _later(_table, NAMES, lambda c=_cat: (
                _reference if c == "proof" else _handler([_NAME[c]]), _NAME[c].right))
        _opens[_cat, _need] = [*_keyed, *(NAMES if _cat in _NAME else ())]
    for _op, _note in _INFIX[_cat].items():
        for _table in _I[_cat][: _note.level + 1]:
            _keys = _opens[_cat, _note.parts[1].arg] if _op is None else [_op]
            _later(_table, _keys, lambda n=_note: (_handler([n], infix=True), n.parts[0].arg, n.right))
_WHOLE = {c: [Note(c, 0, 0, (Hole("x", kind, c, ("", ()) if kind is SCHEMA else 0),), (), lambda x: x)]
          for c, kind in (("term", TERM), ("formula", FORMULA), ("axiom", SCHEMA), ("proof", PROOF))}  # whole trees


class _Parser:
    __slots__ = ("text", "w", "k", "pos", "table", "nodes")

    def __init__(self, text: str):
        self.text = text
        self.w, self.k = tokenize(text)
        self.pos = 0
        self.table: dict[str, Proof] = {}
        self.nodes: dict[tuple, object] = {}  # a build and its operands' keys -> the node this parse built

    def miss(self, i: int, expected: tuple[str, ...]):
        raise _diagnostic(self.text, i, f"found {self.w[i] or 'end of input'!r}", expected)

    def name(self, what: str) -> str:
        i = self.pos
        if self.k[i] not in NAMES:
            if IDENT.match(self.w[i]):
                raise _diagnostic(self.text, i, f"reserved word {self.w[i]!r} cannot be a name", (what,))
            self.miss(i, (what,))
        self.pos = i + 1
        return self.w[i]

    def expect(self, word: str) -> None:
        if self.w[self.pos] != word:
            self.miss(self.pos, (word if word[0].isalpha() else repr(word),))
        self.pos += 1

    def terms(self, lead: str, count: int | None) -> tuple[Term, ...]:
        """``count`` terms after ``lead`` each; with no count, a comma list after an optional ``lead``."""
        out: list[Term] = []
        while len(out) != count and (count is not None or self.w[self.pos] == (lead if not out else ",")):
            self.expect(lead if count is not None or not out else ",")
            h, _ = _P["term"][0].get(self.k[self.pos], _D["term"])
            out.append(h(self, self.w, self.k))
        return tuple(out)

    # -- declarations

    def file(self, w: list[str], k: list[str]) -> TheoremFile:
        mode = MODES[0]
        if w[self.pos] == MODE:
            self.pos += 1
            if w[self.pos] not in MODES:
                self.miss(self.pos, (f"mode name ({' or '.join(MODES)})",))
            mode = w[self.pos]
            self.pos += 1
            self.expect(".")
        decls, directives = [], []
        while k[self.pos] != EOF:
            word = w[self.pos]
            if word not in (THEOREM, *DIRECTIVES):
                self.miss(self.pos, (f"declaration ({THEOREM}, {', '.join(DIRECTIVES)}) or end of file",))
            self.pos += 1
            name = self.name("theorem name")
            if word == THEOREM:
                if name in self.table:
                    raise _diagnostic(self.text, self.pos, f"duplicate theorem name {name!r}")
                trees = []
                for lead, cat in ((":", "formula"), (":=", "proof")):  # as _WHOLE reads them, in this frame
                    self.expect(lead)
                    h, r = _P[cat][0].get(k[self.pos], _D[cat])
                    trees.append(h(self, w, k))
                    while (e := _I[cat][0].get(k[self.pos])) and r >= e[1]:
                        trees[-1], r = e[0](self, w, k, trees[-1]), e[2]
                self.table[name] = trees[1]
                decls.append(Declaration(name, *trees))
            elif name in self.table:
                directives.append((word, name))
            else:
                raise _diagnostic(self.text, self.pos, f"directive names unknown theorem {name!r}")
            self.expect(".")
        return TheoremFile(mode, tuple(decls), tuple(directives))


def _run(text: str, read):
    """Read the whole text; nesting too deep for the interpreter's stack is a Diagnostic."""
    p = _Parser(text)
    try:
        out = read(p, p.w, p.k)
    except RecursionError:
        raise _diagnostic(text, p.pos, "nesting too deep") from None
    if p.k[p.pos] != EOF:
        p.miss(p.pos, ("end of input",))
    return out


def parse(text: str) -> TheoremFile:
    """Parse a theorem file, raising Diagnostic on bad input."""
    return _run(text, _Parser.file)


def parse_formula(text: str) -> Formula:
    return _run(text, _handler(_WHOLE["formula"]))


def parse_term(text: str) -> Term:
    return _run(text, _handler(_WHOLE["term"]))


def parse_proof(text: str) -> Proof:
    return _run(text, _handler(_WHOLE["proof"]))


def parse_axiom(text: str) -> AxiomId:
    """An axiom identifier as ``izf axiom`` names it: ``pair``, ``inac2``, ``sep[z a | z in a]``."""
    return _run(text, _handler(_WHOLE["axiom"]))
