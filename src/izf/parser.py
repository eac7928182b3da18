"""Surface syntax: tokenizer and recursive-descent parser for theorem files.

The file format is a header (optional ``mode nwf .``), followed by theorem
declarations ``thm NAME : FORMULA := PROOF .`` and ``eval``/``realize``
directives.  Later declarations may reference earlier ones by name in proof
position; references are inlined at parse time.  Diagnostics carry line,
column and the token set the parser was prepared to accept.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from .axioms import (
    AxiomId,
    EmptyAx,
    EqAx,
    InacAx,
    InAx,
    IndAx,
    InfAx,
    NwfAx,
    PairAx,
    PowerAx,
    ReplAx,
    Sep0Ax,
    SepAx,
    UnionAx,
    arity,
)
from .proofs import (
    App,
    AppT,
    AxProp,
    AxRep,
    Case,
    ExIntro,
    Fst,
    Ind,
    Inl,
    Inr,
    LamF,
    LamP,
    Let,
    Magic,
    PairP,
    Proof,
    PropVar,
    Snd,
)
from .syntax import (
    And,
    Bottom,
    Empty,
    Eq,
    Exists,
    Forall,
    Formula,
    Imp,
    Inac,
    Mem,
    MemI,
    NwfConst,
    Numeral,
    Omega,
    Or,
    PairT,
    PowerT,
    Repl,
    Sep,
    Term,
    UnionT,
    Var,
    desugar,
    iff,
    succ_term,
)


@dataclass
class Diagnostic(Exception):
    line: int
    col: int
    message: str
    expected: tuple[str, ...] = ()

    def __str__(self) -> str:
        exp = f" (expected {', '.join(self.expected)})" if self.expected else ""
        return f"{self.line}:{self.col}: {self.message}{exp}"


@dataclass(frozen=True)
class Tok:
    kind: str  # "ident" | "int" | "sym" | "eof"
    text: str
    line: int
    col: int


_SYMBOLS = [
    ":=", "<->", "->", "/\\", "\\/", "=>",
    "{", "}", "(", ")", "[", "]", ",", ";", ".", ":", "|", "=", "@",
]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>--[^\n]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<int>\d+)
  | (?P<sym>:=|<->|->|/\\|\\/|=>|[{}()\[\],;.:|=@])
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[Tok]:
    toks: list[Tok] = []
    line, bol = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise Diagnostic(line, pos - bol + 1, f"unexpected character {text[pos]!r}")
        newlines = m.group(0).count("\n")
        if m.lastgroup in ("ws", "comment"):
            if newlines:
                line += newlines
                bol = m.start(0) + m.group(0).rindex("\n") + 1
            pos = m.end()
            continue
        kind = {"ident": "ident", "int": "int", "sym": "sym"}[m.lastgroup]
        toks.append(Tok(kind, m.group(0), line, m.start() - bol + 1))
        pos = m.end()
    toks.append(Tok("eof", "", line, pos - bol + 1))
    return toks


_V_RE = re.compile(r"^V(\d+)$")
_INACREP_RE = re.compile(r"^inac(\d+)(Rep|Prop)$")

_AX_SIMPLE = {
    "empty": EmptyAx,
    "pair": PairAx,
    "inf": InfAx,
    "union": UnionAx,
    "power": PowerAx,
    "in": InAx,
    "eq": EqAx,
    "n": NwfAx,
    "s": Sep0Ax,
}

_KEYWORDS = {
    "thm", "mode", "eval", "realize", "nwf", "standard",
    "bot", "forall", "exists", "in", "ini",
    "empty", "omega", "union", "power", "sep", "repl", "S", "nwfC", "nwfD",
    "fun", "fst", "snd", "inl", "inr", "case", "of", "let", "magic", "ind",
}


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


class _Parser:
    def __init__(self, toks: list[Tok]):
        self.toks = toks
        self.pos = 0
        self.table: dict[str, Proof] = {}

    # -- token plumbing

    def peek(self, ahead: int = 0) -> Tok:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Tok:
        t = self.peek()
        self.pos += 1
        return t

    def at_sym(self, s: str) -> bool:
        t = self.peek()
        return t.kind == "sym" and t.text == s

    def at_word(self, w: str) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.text == w

    def eat_sym(self, s: str) -> None:
        if not self.at_sym(s):
            t = self.peek()
            raise Diagnostic(t.line, t.col, f"found {t.text!r}", (repr(s),))
        self.pos += 1

    def eat_word(self, w: str) -> None:
        if not self.at_word(w):
            t = self.peek()
            raise Diagnostic(t.line, t.col, f"found {t.text!r}", (w,))
        self.pos += 1

    def ident(self, what: str = "identifier") -> str:
        t = self.peek()
        if t.kind != "ident":
            raise Diagnostic(t.line, t.col, f"found {t.text!r}", (what,))
        if t.text in _KEYWORDS:
            raise Diagnostic(t.line, t.col, f"keyword {t.text!r} cannot be a name", (what,))
        self.pos += 1
        return t.text

    def fail(self, what: str):
        t = self.peek()
        raise Diagnostic(t.line, t.col, f"found {t.text or 'end of input'!r}", (what,))

    # -- terms

    def term(self) -> Term:
        return self.term_prefix()

    def term_prefix(self) -> Term:
        if self.at_word("union"):
            self.next()
            return UnionT(self.term_prefix())
        if self.at_word("power"):
            self.next()
            return PowerT(self.term_prefix())
        if self.at_word("S"):
            self.next()
            self.eat_sym("(")
            inner = self.term()
            self.eat_sym(")")
            return succ_term(inner)
        return self.term_atom()

    def term_atom(self) -> Term:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return desugar(Numeral(int(t.text)))
        if t.kind == "ident":
            if t.text == "empty":
                self.next()
                return Empty()
            if t.text == "omega":
                self.next()
                return Omega()
            if t.text == "nwfC":
                self.next()
                return NwfConst("C")
            if t.text == "nwfD":
                self.next()
                return NwfConst("D")
            m = _V_RE.match(t.text)
            if m:
                self.next()
                idx = int(m.group(1))
                return Omega() if idx == 0 else Inac(idx)
            if t.text == "sep":
                self.next()
                binders, body = self.schema_brackets(min_binders=1)
                carrier, args = self.schema_term_args(len(binders) - 1)
                return Sep(binders[0], binders[1:], body, carrier, args)
            if t.text == "repl":
                self.next()
                binders, body = self.schema_brackets(min_binders=2)
                carrier, args = self.schema_term_args(len(binders) - 2)
                return Repl(binders[0], binders[1], binders[2:], body, carrier, args)
            if t.text in _KEYWORDS:
                self.fail("term")
            self.next()
            return Var(t.text)
        if self.at_sym("{"):
            self.next()
            l = self.term()
            self.eat_sym(",")
            r = self.term()
            self.eat_sym("}")
            return PairT(l, r)
        if self.at_sym("("):
            self.next()
            inner = self.term()
            self.eat_sym(")")
            return inner
        self.fail("term")

    def schema_brackets(self, min_binders: int) -> tuple[tuple[str, ...], Formula]:
        self.eat_sym("[")
        binders = [self.ident("binder")]
        while self.peek().kind == "ident" and not self.at_sym("|"):
            binders.append(self.ident("binder"))
        self.eat_sym("|")
        body = self.formula()
        self.eat_sym("]")
        if len(binders) < min_binders:
            t = self.peek()
            raise Diagnostic(t.line, t.col, f"schema needs at least {min_binders} binder(s)")
        return tuple(binders), body

    def schema_term_args(self, n_params: int) -> tuple[Term, tuple[Term, ...]]:
        self.eat_sym("(")
        carrier = self.term()
        args: list[Term] = []
        if self.at_sym(";"):
            self.next()
            args.append(self.term())
            while self.at_sym(","):
                self.next()
                args.append(self.term())
        self.eat_sym(")")
        if len(args) != n_params:
            t = self.peek()
            raise Diagnostic(t.line, t.col, f"schema expects {n_params} parameter term(s), got {len(args)}")
        return carrier, tuple(args)

    # -- formulas

    def formula(self) -> Formula:
        if self.at_word("forall") or self.at_word("exists"):
            quant = self.next().text
            binder = self.ident("bound variable")
            self.eat_sym(",")
            body = self.formula()
            return Forall(binder, body) if quant == "forall" else Exists(binder, body)
        return self.formula_iff()

    def formula_iff(self) -> Formula:
        left = self.formula_imp()
        if self.at_sym("<->"):
            self.next()
            right = self.formula_imp()
            return iff(left, right)
        return left

    def formula_imp(self) -> Formula:
        left = self.formula_or()
        if self.at_sym("->"):
            self.next()
            return Imp(left, self.formula_imp())
        return left

    def formula_or(self) -> Formula:
        left = self.formula_and()
        if self.at_sym("\\/"):
            self.next()
            return Or(left, self.formula_or())
        return left

    def formula_and(self) -> Formula:
        left = self.formula_atom()
        if self.at_sym("/\\"):
            self.next()
            return And(left, self.formula_and())
        return left

    def formula_atom(self) -> Formula:
        if self.at_word("bot"):
            self.next()
            return Bottom()
        if self.at_sym("("):
            self.next()
            inner = self.formula()
            self.eat_sym(")")
            return inner
        if self.at_word("forall") or self.at_word("exists"):
            return self.formula()
        left = self.term()
        if self.at_word("in"):
            self.next()
            return Mem(left, self.term())
        if self.at_word("ini"):
            self.next()
            return MemI(left, self.term())
        if self.at_sym("="):
            self.next()
            return Eq(left, self.term())
        self.fail("relation symbol (in, ini, =)")

    # -- proofs

    def proof(self) -> Proof:
        if self.at_word("fun"):
            self.next()
            if self.at_sym("("):
                self.next()
                x = self.ident("hypothesis name")
                self.eat_sym(":")
                dom = self.formula()
                self.eat_sym(")")
                self.eat_sym("=>")
                return LamP(x, dom, self.proof())
            a = self.ident("variable")
            self.eat_sym("=>")
            return LamF(a, self.proof())
        if self.at_word("let"):
            self.next()
            self.eat_sym("[")
            a = self.ident("witness variable")
            self.eat_sym(",")
            x = self.ident("hypothesis name")
            self.eat_sym(":")
            ann = self.formula()
            self.eat_sym("]")
            self.eat_sym(":=")
            subj = self.proof()
            self.eat_word("in")
            body = self.proof()
            return Let(a, x, ann, subj, body)
        return self.proof_app()

    def proof_app(self) -> Proof:
        out = self.proof_atom()
        while True:
            if self.at_sym("@"):
                self.next()
                out = AppT(out, self.term_prefix())
                continue
            if self._at_proof_atom_start():
                out = App(out, self.proof_atom())
                continue
            return out

    def _at_proof_atom_start(self) -> bool:
        t = self.peek()
        if t.kind == "sym":
            return t.text in ("(", "[")
        if t.kind != "ident":
            return False
        if t.text in ("in", "of", "ini"):
            return False
        if t.text in ("fst", "snd", "inl", "inr", "magic", "case", "ind"):
            return True
        if self._axname(t.text) is not None:
            return True
        return t.text not in _KEYWORDS

    def _axname(self, word: str):
        """(axiom, "Rep" or "Prop") for an axiom name, else None; an
        inaccessible axiom comes back as its index, unchecked, since
        lookahead asks too."""
        m = _INACREP_RE.match(word)
        if m:
            return int(m.group(1)), m.group(2)
        for base, cls in _AX_SIMPLE.items():
            for kind in ("Rep", "Prop"):
                if word == base + kind:
                    return cls(), kind
        if word in ("sepRep", "sepProp"):
            return "sep", word[3:]
        if word in ("replRep", "replProp"):
            return "repl", word[4:]
        return None

    def proof_atom(self) -> Proof:
        t = self.peek()
        if self.at_sym("("):
            self.next()
            first = self.proof()
            if self.at_sym(","):
                self.next()
                second = self.proof()
                self.eat_sym(")")
                return PairP(first, second)
            self.eat_sym(")")
            return first
        if self.at_sym("["):
            self.next()
            witness = self.term()
            self.eat_sym(",")
            body = self.proof()
            self.eat_sym(":")
            ann = self.formula()
            self.eat_sym("]")
            return ExIntro(witness, body, ann)
        if t.kind != "ident":
            self.fail("proof")
        word = t.text
        if word in ("fst", "snd"):
            self.next()
            self.eat_sym("(")
            inner = self.proof()
            self.eat_sym(")")
            return Fst(inner) if word == "fst" else Snd(inner)
        if word in ("inl", "inr", "magic"):
            self.next()
            self.eat_sym("(")
            inner = self.proof()
            self.eat_sym(":")
            ann = self.formula()
            self.eat_sym(")")
            cls = {"inl": Inl, "inr": Inr, "magic": Magic}[word]
            return cls(inner, ann)
        if word == "case":
            self.next()
            scrut = self.proof_app()
            self.eat_word("of")
            self.eat_sym("{")
            lx = self.ident("branch hypothesis")
            self.eat_sym(":")
            la = self.formula()
            self.eat_sym("=>")
            lb = self.proof()
            self.eat_sym(";")
            rx = self.ident("branch hypothesis")
            self.eat_sym(":")
            ra = self.formula()
            self.eat_sym("=>")
            rb = self.proof()
            self.eat_sym("}")
            return Case(scrut, lx, la, lb, rx, ra, rb)
        if word == "ind":
            self.next()
            binders, body = self.schema_brackets(min_binders=1)
            schema = IndAx(binders[0], binders[1:], body)
            self.eat_sym("(")
            arg = self.proof()
            ts: list[Term] = []
            if self.at_sym(";"):
                self.next()
                ts.append(self.term())
                while self.at_sym(","):
                    self.next()
                    ts.append(self.term())
            self.eat_sym(")")
            return Ind(schema, arg, tuple(ts))
        ax = self._axname(word)
        if ax is not None:
            self.next()
            tag, kind = ax
            if tag == "sep":
                binders, body = self.schema_brackets(min_binders=1)
                axid: AxiomId = SepAx(binders[0], binders[1:], body)
            elif tag == "repl":
                binders, body = self.schema_brackets(min_binders=2)
                axid = ReplAx(binders[0], binders[1], binders[2:], body)
            elif isinstance(tag, int):
                if tag < 1:
                    raise Diagnostic(t.line, t.col, "inaccessible axiom index must be >= 1")
                axid = InacAx(tag)
            else:
                axid = tag
            n_terms = 1 + arity(axid)
            self.eat_sym("(")
            terms = [self.term()]
            for _ in range(n_terms - 1):
                self.eat_sym(",")
                terms.append(self.term())
            self.eat_sym(",")
            inner = self.proof()
            self.eat_sym(")")
            cls = AxRep if kind == "Rep" else AxProp
            return cls(axid, terms[0], tuple(terms[1:]), inner)
        name = self.ident("proof")
        if name in self.table:
            return self.table[name]
        return PropVar(name)

    # -- declarations

    def file(self) -> TheoremFile:
        mode = "standard"
        if self.at_word("mode"):
            self.next()
            t = self.peek()
            if t.kind == "ident" and t.text in ("nwf", "standard"):
                mode = self.next().text
            else:
                self.fail("mode name (standard or nwf)")
            self.eat_sym(".")
        decls: list[Declaration] = []
        directives: list[tuple[str, str]] = []
        while not self.peek().kind == "eof":
            if self.at_word("thm"):
                self.next()
                name = self.ident("theorem name")
                if name in self.table:
                    t = self.peek()
                    raise Diagnostic(t.line, t.col, f"duplicate theorem name {name!r}")
                self.eat_sym(":")
                phi = self.formula()
                self.eat_sym(":=")
                prf = self.proof()
                self.eat_sym(".")
                self.table[name] = prf
                decls.append(Declaration(name, phi, prf))
                continue
            if self.at_word("eval") or self.at_word("realize"):
                kind = self.next().text
                name = self.ident("theorem name")
                if name not in self.table:
                    t = self.peek()
                    raise Diagnostic(t.line, t.col, f"directive names unknown theorem {name!r}")
                self.eat_sym(".")
                directives.append((kind, name))
                continue
            self.fail("declaration (thm, eval, realize) or end of file")
        return TheoremFile(mode, tuple(decls), tuple(directives))


def _run(text: str, rule: Callable[[_Parser], object]):
    """Apply one grammar rule to the whole text.

    Nesting deeper than the interpreter's stack comes back as a Diagnostic
    at the token the parser had reached.
    """
    p = _Parser(tokenize(text))
    try:
        out = rule(p)
    except RecursionError:
        t = p.peek()
        raise Diagnostic(t.line, t.col, "nesting too deep") from None
    if p.peek().kind != "eof":
        p.fail("end of input")
    return out


def parse(text: str) -> TheoremFile:
    """Parse a theorem file, raising Diagnostic on bad input."""
    return _run(text, _Parser.file)


def parse_formula(text: str) -> Formula:
    return _run(text, _Parser.formula)


def parse_term(text: str) -> Term:
    return _run(text, _Parser.term)


def parse_proof(text: str) -> Proof:
    return _run(text, _Parser.proof)
