"""Proof terms, their erased counterparts, and their binding shapes.

Two variable namespaces: propositional variables (hypothesis names) and
first-order variables shared with terms and formulas.  Lambdas, case, let
and the extra introduction forms carry formula annotations so that type
inference is fully syntax-directed; erasure drops every annotation and the
term arguments of the axiom and induction constructors, but keeps the
first-order terms of quantifier proofs, mirroring the reduction-transparent
erasure of the untyped calculus.

``SHAPES`` declares each constructor's binding shape once, into the table
``syntax.SHAPES`` that also holds every term, formula and axiom identifier.
Free variables, the nameless key ``canon`` and substitution in both
namespaces are the syntax traversals over that table, and erasure in
``proof_ops`` is read off it: an annotated constructor and its erased
partner share a tag, and the erased one keeps the same-named fields.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import syntax as sx
from .axioms import AxiomId, IndAx
from .syntax import (
    FO_BINDER,
    FORMULA,
    HYP,
    HYP_BINDER,
    LITERAL,
    PROOF,
    SCHEMA,
    TERM,
    TERMS,
    Formula,
    Shape,
    Term,
    _shape,
)


class Proof(sx.Node):
    __slots__ = ()


class ErasedProof(sx.Node):
    __slots__ = ()


# ---------------------------------------------------------------------------
# Annotated proof terms


@dataclass(frozen=True)
class PropVar(Proof):
    name: str


@dataclass(frozen=True)
class App(Proof):
    fn: Proof
    arg: Proof


@dataclass(frozen=True)
class LamP(Proof):
    var: str
    dom: Formula
    body: Proof


@dataclass(frozen=True)
class LamF(Proof):
    var: str
    body: Proof


@dataclass(frozen=True)
class AppT(Proof):
    fn: Proof
    arg: Term


@dataclass(frozen=True)
class PairP(Proof):
    left: Proof
    right: Proof


@dataclass(frozen=True)
class Fst(Proof):
    arg: Proof


@dataclass(frozen=True)
class Snd(Proof):
    arg: Proof


@dataclass(frozen=True)
class Inl(Proof):
    body: Proof
    ann: Formula  # the full disjunction being introduced


@dataclass(frozen=True)
class Inr(Proof):
    body: Proof
    ann: Formula


@dataclass(frozen=True)
class Case(Proof):
    scrut: Proof
    lvar: str
    lann: Formula
    lbody: Proof
    rvar: str
    rann: Formula
    rbody: Proof


@dataclass(frozen=True)
class ExIntro(Proof):
    witness: Term
    body: Proof
    ann: Formula  # the full existential formula being introduced


@dataclass(frozen=True)
class Let(Proof):
    fvar: str
    pvar: str
    ann: Formula  # the body formula of the eliminated existential
    subject: Proof
    body: Proof


@dataclass(frozen=True)
class Magic(Proof):
    arg: Proof
    ann: Formula  # the formula concluded ex falso


@dataclass(frozen=True)
class Ind(Proof):
    schema: IndAx
    arg: Proof
    terms: tuple[Term, ...]


@dataclass(frozen=True)
class AxRep(Proof):
    ax: AxiomId
    term: Term
    args: tuple[Term, ...]
    arg: Proof


@dataclass(frozen=True)
class AxProp(Proof):
    ax: AxiomId
    term: Term
    args: tuple[Term, ...]
    arg: Proof


# ---------------------------------------------------------------------------
# Erased proof terms


@dataclass(frozen=True)
class EPropVar(ErasedProof):
    name: str


@dataclass(frozen=True)
class EApp(ErasedProof):
    fn: ErasedProof
    arg: ErasedProof


@dataclass(frozen=True)
class ELamP(ErasedProof):
    var: str
    body: ErasedProof


@dataclass(frozen=True)
class ELamF(ErasedProof):
    var: str
    body: ErasedProof


@dataclass(frozen=True)
class EAppT(ErasedProof):
    fn: ErasedProof
    arg: Term


@dataclass(frozen=True)
class EPairP(ErasedProof):
    left: ErasedProof
    right: ErasedProof


@dataclass(frozen=True)
class EFst(ErasedProof):
    arg: ErasedProof


@dataclass(frozen=True)
class ESnd(ErasedProof):
    arg: ErasedProof


@dataclass(frozen=True)
class EInl(ErasedProof):
    body: ErasedProof


@dataclass(frozen=True)
class EInr(ErasedProof):
    body: ErasedProof


@dataclass(frozen=True)
class ECase(ErasedProof):
    scrut: ErasedProof
    lvar: str
    lbody: ErasedProof
    rvar: str
    rbody: ErasedProof


@dataclass(frozen=True)
class EExIntro(ErasedProof):
    witness: Term
    body: ErasedProof


@dataclass(frozen=True)
class ELet(ErasedProof):
    fvar: str
    pvar: str
    subject: ErasedProof
    body: ErasedProof


@dataclass(frozen=True)
class EMagic(ErasedProof):
    arg: ErasedProof


@dataclass(frozen=True)
class EInd(ErasedProof):
    arg: ErasedProof


@dataclass(frozen=True)
class EAxRep(ErasedProof):
    family: str  # axiom family tag, e.g. "pair", "in", "inac1"
    arg: ErasedProof


@dataclass(frozen=True)
class EAxProp(ErasedProof):
    family: str
    arg: ErasedProof


# ---------------------------------------------------------------------------
# Binding shapes
#
# One declaration per constructor, annotated and erased alike, so the binding
# structure of the calculus is written down once.  The tag names the
# constructor inside ``canon`` keys; a free hypothesis variable renders as
# ("pf", name).


SHAPES: dict[type, Shape] = {
    PropVar: _shape("pf", name=HYP),
    App: _shape("app", fn=PROOF, arg=PROOF),
    LamP: _shape("lamp", var=HYP_BINDER, dom=FORMULA, body=(PROOF, "var")),
    LamF: _shape("lamf", var=FO_BINDER, body=(PROOF, "var")),
    AppT: _shape("appt", fn=PROOF, arg=TERM),
    PairP: _shape("pairp", left=PROOF, right=PROOF),
    Fst: _shape("fst", arg=PROOF),
    Snd: _shape("snd", arg=PROOF),
    Inl: _shape("inl", body=PROOF, ann=FORMULA),
    Inr: _shape("inr", body=PROOF, ann=FORMULA),
    Case: _shape(
        "case",
        scrut=PROOF,
        lvar=HYP_BINDER,
        lann=FORMULA,
        lbody=(PROOF, "lvar"),
        rvar=HYP_BINDER,
        rann=FORMULA,
        rbody=(PROOF, "rvar"),
    ),
    ExIntro: _shape("exi", witness=TERM, body=PROOF, ann=FORMULA),
    Let: _shape(
        "let",
        fvar=FO_BINDER,
        pvar=HYP_BINDER,
        ann=(FORMULA, "fvar"),
        subject=PROOF,
        body=(PROOF, "fvar", "pvar"),
    ),
    Magic: _shape("magic", arg=PROOF, ann=FORMULA),
    Ind: _shape("ind", schema=SCHEMA, arg=PROOF, terms=TERMS),
    AxRep: _shape("axrep", ax=SCHEMA, term=TERM, args=TERMS, arg=PROOF),
    AxProp: _shape("axprop", ax=SCHEMA, term=TERM, args=TERMS, arg=PROOF),
    EPropVar: _shape("pf", name=HYP),
    EApp: _shape("app", fn=PROOF, arg=PROOF),
    ELamP: _shape("lamp", var=HYP_BINDER, body=(PROOF, "var")),
    ELamF: _shape("lamf", var=FO_BINDER, body=(PROOF, "var")),
    EAppT: _shape("appt", fn=PROOF, arg=TERM),
    EPairP: _shape("pairp", left=PROOF, right=PROOF),
    EFst: _shape("fst", arg=PROOF),
    ESnd: _shape("snd", arg=PROOF),
    EInl: _shape("inl", body=PROOF),
    EInr: _shape("inr", body=PROOF),
    ECase: _shape(
        "case",
        scrut=PROOF,
        lvar=HYP_BINDER,
        lbody=(PROOF, "lvar"),
        rvar=HYP_BINDER,
        rbody=(PROOF, "rvar"),
    ),
    EExIntro: _shape("exi", witness=TERM, body=PROOF),
    ELet: _shape("let", fvar=FO_BINDER, pvar=HYP_BINDER, subject=PROOF, body=(PROOF, "fvar", "pvar")),
    EMagic: _shape("magic", arg=PROOF),
    EInd: _shape("ind", arg=PROOF),
    EAxRep: _shape("axrep", family=LITERAL, arg=PROOF),
    EAxProp: _shape("axprop", family=LITERAL, arg=PROOF),
}
sx.declare(SHAPES)


# ---------------------------------------------------------------------------
# Value classification


# The value grammar, annotated and erased; ind terms always reduce.
_VALUES = frozenset(
    {LamF, ELamF, LamP, ELamP, Inl, EInl, Inr, EInr, ExIntro, EExIntro, PairP, EPairP, AxRep, EAxRep}
)


def is_value(m: Proof | ErasedProof) -> bool:
    return type(m) in _VALUES


# ---------------------------------------------------------------------------
# Free variables


def proof_free_vars(m: Proof | ErasedProof) -> tuple[frozenset[str], frozenset[str]]:
    """Free propositional and free first-order variables of a proof term.

    First-order variables occurring in formula annotations and embedded
    terms count as free occurrences; the let binder binds its first-order
    variable in both the annotation and the body.
    """
    pv, fv, _, _, _ = sx._names(m)
    return pv, fv


