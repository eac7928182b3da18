"""Proof terms, their erased counterparts, and their binding shapes.

Two variable namespaces: propositional variables (hypothesis names) and
first-order variables shared with terms and formulas.  Lambdas, case, let
and the extra introduction forms carry formula annotations so that type
inference is fully syntax-directed; erasure drops every annotation and the
term arguments of the axiom and induction constructors, but keeps the
first-order terms of quantifier proofs, mirroring the reduction-transparent
erasure of the untyped calculus.

Each constructor is one ``syntax.node`` declaration of its class and its
binding shape, into the table ``syntax.SHAPES`` that also holds every term,
formula and axiom identifier; an erased constructor is declared from its
annotated twin by naming the fields it drops, which records the pair in
``TWINS``.  Free variables, the nameless key ``canon`` and substitution in
both namespaces are the syntax traversals over that table.  Erasure in
``proof_ops``, the values below and the machine's rules read the pairs off
``TWINS``; a twin keeps its annotated constructor's tag and field names.
``CANONICAL`` states the canonical-forms lemma once, from each formula class
to the value constructors that prove it; the value grammar, the checker's
canonical-forms oracle, extraction and the realizability heads read it.
"""

from __future__ import annotations

from . import syntax as sx
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
    node,
)


class Proof(sx.Node):
    __slots__ = ()


class ErasedProof(sx.Node):
    __slots__ = ()


TWINS: dict[type, type] = {}  # annotated constructor -> its erased twin


def erased(twin: type, /, *dropped: str, **family: str) -> type:
    """Declare the erased twin of an annotated constructor, and record it in
    ``TWINS``: ``E`` before its name, its tag, and its fields in order but
    the ``dropped`` ones; the field named in ``family`` becomes the literal
    family tag named there."""
    fields = {}
    for f in sx.SHAPES[twin].fields:
        if f.name in family:
            fields[family[f.name]] = LITERAL
        elif f.name not in dropped:
            fields[f.name] = (f.kind, *f.under)
    TWINS[twin] = node(ErasedProof, "E" + twin.__name__, sx.SHAPES[twin].tag, **fields)
    return TWINS[twin]


# ---------------------------------------------------------------------------
# Proof terms
#
# Each annotated constructor and then its erased partner.  The tag names the
# constructor inside ``canon`` keys; a free hypothesis variable renders as
# ("pf", name).

PropVar = node(Proof, "PropVar", "pf", name=HYP)
EPropVar = erased(PropVar)
App = node(Proof, "App", "app", fn=PROOF, arg=PROOF)
EApp = erased(App)
LamP = node(Proof, "LamP", "lamp", var=HYP_BINDER, dom=FORMULA, body=(PROOF, "var"))
ELamP = erased(LamP, "dom")
LamF = node(Proof, "LamF", "lamf", var=FO_BINDER, body=(PROOF, "var"))
ELamF = erased(LamF)
AppT = node(Proof, "AppT", "appt", fn=PROOF, arg=TERM)
EAppT = erased(AppT)
PairP = node(Proof, "PairP", "pairp", left=PROOF, right=PROOF)
EPairP = erased(PairP)
Fst = node(Proof, "Fst", "fst", arg=PROOF)
EFst = erased(Fst)
Snd = node(Proof, "Snd", "snd", arg=PROOF)
ESnd = erased(Snd)
Inl = node(Proof, "Inl", "inl", body=PROOF, ann=FORMULA)  # ann: the full disjunction being introduced
EInl = erased(Inl, "ann")
Inr = node(Proof, "Inr", "inr", body=PROOF, ann=FORMULA)
EInr = erased(Inr, "ann")
Case = node(
    Proof, "Case", "case",
    scrut=PROOF,
    lvar=HYP_BINDER, lann=FORMULA, lbody=(PROOF, "lvar"),
    rvar=HYP_BINDER, rann=FORMULA, rbody=(PROOF, "rvar"),
)
ECase = erased(Case, "lann", "rann")
ExIntro = node(Proof, "ExIntro", "exi", witness=TERM, body=PROOF, ann=FORMULA)  # ann: the full existential
EExIntro = erased(ExIntro, "ann")
# ann: the body formula of the eliminated existential
Let = node(
    Proof, "Let", "let",
    fvar=FO_BINDER, pvar=HYP_BINDER, ann=(FORMULA, "fvar"), subject=PROOF, body=(PROOF, "fvar", "pvar"),
)
ELet = erased(Let, "ann")
Magic = node(Proof, "Magic", "magic", arg=PROOF, ann=FORMULA)  # ann: the formula concluded ex falso
EMagic = erased(Magic, "ann")
Ind = node(Proof, "Ind", "ind", schema=SCHEMA, arg=PROOF, terms=TERMS)
EInd = erased(Ind, "schema", "terms")
# An erased axiom proof keeps its family tag (e.g. "pair", "in", "inac1").
AxRep = node(Proof, "AxRep", "axrep", ax=SCHEMA, term=TERM, args=TERMS, arg=PROOF)
EAxRep = erased(AxRep, "term", "args", ax="family")
AxProp = node(Proof, "AxProp", "axprop", ax=SCHEMA, term=TERM, args=TERMS, arg=PROOF)
EAxProp = erased(AxProp, "term", "args", ax="family")
sx.declare()


# ---------------------------------------------------------------------------
# Canonical forms
#
# The canonical-forms lemma: a closed value proving a formula of each class
# is one of these annotated constructors; no closed value proves absurdity.
# The value grammar is these constructors and their twins; ind terms always
# reduce.

CANONICAL: dict[type, tuple[type, ...]] = {
    sx.Or: (Inl, Inr), sx.And: (PairP,), sx.Imp: (LamP,), sx.Forall: (LamF,), sx.Exists: (ExIntro,),
    sx.MemI: (AxRep,), sx.Mem: (AxRep,), sx.Eq: (AxRep,), sx.Bottom: (),
}
_VALUES = frozenset(c for vs in CANONICAL.values() for v in vs for c in (v, TWINS[v]))


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


