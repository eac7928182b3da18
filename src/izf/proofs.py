"""Proof terms, their erased counterparts, and their binding shapes.

Two variable namespaces: propositional variables (hypothesis names) and
first-order variables shared with terms and formulas.  Lambdas, case, let
and the extra introduction forms carry formula annotations so that type
inference is fully syntax-directed; erasure drops every annotation and the
term arguments of the axiom and induction constructors, but keeps the
first-order terms of quantifier proofs, mirroring the reduction-transparent
erasure of the untyped calculus.

``SHAPES`` declares each constructor's binding shape once; free variables
here, and substitution and ``canon`` in ``proof_ops``, are derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import syntax as sx
from .axioms import AxiomId, IndAx, ReplAx, SepAx
from .syntax import Formula, Term


class Proof:
    __slots__ = ()


class ErasedProof:
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
# One declaration per constructor, annotated and erased alike: its fields in
# dataclass order, each with a kind, and for each sub-proof or formula field
# the binder fields whose scope covers it.  Free variables, substitution and
# the nameless key ``canon`` are all derived from this table, so the binding
# structure of the calculus is written down once.  The tag names the
# constructor inside ``canon`` keys.


class Kind(Enum):
    PROOF = "sub-proof"
    TERM = "term"
    FORMULA = "formula"
    TERMS = "term tuple"
    SCHEMA = "axiom schema"  # an axiom identifier; its schema binds its own body
    LITERAL = "literal"  # copied as is
    HYP = "hypothesis variable"  # the occurrence PropVar/EPropVar stands for
    HYP_BINDER = "hypothesis binder"
    FO_BINDER = "first-order binder"


PROOF, TERM, FORMULA, TERMS, SCHEMA, LITERAL, HYP, HYP_BINDER, FO_BINDER = Kind


@dataclass(frozen=True)
class FieldShape:
    name: str
    kind: Kind
    under: tuple[str, ...]  # binder fields whose scope covers this field, in field order
    hyp_under: tuple[str, ...]  # the hypothesis binders among them
    fo_under: tuple[str, ...]  # the first-order binders among them


@dataclass(frozen=True)
class Shape:
    tag: str
    fields: tuple[FieldShape, ...]


def _shape(tag: str, **fields: Kind | tuple) -> Shape:
    """``name=KIND`` or ``name=(KIND, binder, ...)`` for each field, in order."""
    specs = {n: (s,) if isinstance(s, Kind) else s for n, s in fields.items()}
    out = []
    for name, (kind, *under) in specs.items():
        hyp = tuple(b for b in under if specs[b][0] is HYP_BINDER)
        fo = tuple(b for b in under if specs[b][0] is FO_BINDER)
        out.append(FieldShape(name, kind, tuple(under), hyp, fo))
    return Shape(tag, tuple(out))


SHAPES: dict[type, Shape] = {
    PropVar: _shape("var", name=HYP),
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
    EPropVar: _shape("var", name=HYP),
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


# ---------------------------------------------------------------------------
# Value classification


class ValueTag(Enum):
    LAMF = "lamf"
    LAMP = "lamp"
    INL = "inl"
    INR = "inr"
    EXINTRO = "exintro"
    PAIRP = "pairp"
    AXREP = "axrep"
    NOT_VALUE = "not-value"


def value_tag(m: Proof | ErasedProof) -> ValueTag:
    """Classify per the value grammar; ind terms always reduce."""
    match m:
        case LamF() | ELamF():
            return ValueTag.LAMF
        case LamP() | ELamP():
            return ValueTag.LAMP
        case Inl() | EInl():
            return ValueTag.INL
        case Inr() | EInr():
            return ValueTag.INR
        case ExIntro() | EExIntro():
            return ValueTag.EXINTRO
        case PairP() | EPairP():
            return ValueTag.PAIRP
        case AxRep() | EAxRep():
            return ValueTag.AXREP
        case _:
            return ValueTag.NOT_VALUE


def is_value(m: Proof | ErasedProof) -> bool:
    return value_tag(m) is not ValueTag.NOT_VALUE


# ---------------------------------------------------------------------------
# Free variables


def proof_free_vars(m: Proof | ErasedProof) -> tuple[frozenset[str], frozenset[str]]:
    """Free propositional and free first-order variables of a proof term.

    First-order variables occurring in formula annotations and embedded
    terms count as free occurrences; the let binder binds its first-order
    variable in both the annotation and the body.
    """
    plan = _FV_PLANS.get(type(m))
    if plan is None:
        raise TypeError(f"not a proof term: {m!r}")
    pv = fv = _NO_VARS
    for name, kind, hyp_under, fo_under in plan:
        v = getattr(m, name)
        if kind is PROOF:
            p, t = proof_free_vars(v)
            if hyp_under:
                p = p - {getattr(m, b) for b in hyp_under}
            if fo_under:
                t = t - {getattr(m, b) for b in fo_under}
            pv, fv = pv | p, fv | t
        elif kind is HYP:
            pv = pv | {v}
        elif kind is TERMS:
            for u in v:
                fv = fv | sx.free_vars(u)
        elif kind is SCHEMA:
            fv = fv | _schema_free(v)
        else:  # a term or formula
            t = sx.free_vars(v)
            fv = fv | (t - {getattr(m, b) for b in fo_under} if fo_under else t)
    return pv, fv


_NO_VARS: frozenset[str] = frozenset()

# Per constructor: (field, kind, hypothesis binders over it, first-order
# binders over it) for each field that can hold a free variable.
_FV_PLANS = {
    cls: tuple(
        (f.name, f.kind, f.hyp_under, f.fo_under)
        for f in shape.fields
        if f.kind not in (LITERAL, HYP_BINDER, FO_BINDER)
    )
    for cls, shape in SHAPES.items()
}


def _schema_free(ax: AxiomId) -> frozenset[str]:
    """Free variables of a schema body beyond the variables the schema binds."""
    match ax:
        case SepAx(z, ps, body):
            return sx.free_vars(body) - ({z} | set(ps))
        case ReplAx(z, y, ps, body):
            return sx.free_vars(body) - ({z, y} | set(ps))
        case IndAx(a, ps, body):
            return sx.free_vars(body) - ({a} | set(ps))
        case _:
            return frozenset()
