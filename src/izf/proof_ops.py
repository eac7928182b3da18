"""Substitution, erasure and the nameless key for proof terms.

Substitution and ``canon`` are read off the binding shapes declared once in
``proofs.SHAPES``: each is one traversal serving annotated and erased terms
alike, planned per constructor at import.

Substitution is capture-avoiding across both namespaces: substituting a
proof must dodge both propositional and first-order binders, substituting a
term rewrites embedded formulas and annotations as well.  Each call
computes the free variables of what it substitutes at most once, when it
first crosses a binder.

``canon`` is the proof-level nameless key: proof binders become indices and
every embedded term or formula goes through ``syntax.to_nameless``, the one
binding-invariant key of the package.  Equal keys mean alpha-equal terms, so
the key is the state key of cycle detection and the memo key of the
realizability evaluator.  ``canon_key`` memoises it in a dict the caller
owns (the evaluator keeps one per instance); this module holds no cache.
"""

from __future__ import annotations

from functools import cache

from . import syntax as sx
from .axioms import AxiomId, IndAx, ReplAx, SepAx, family_name
from .proofs import (
    FO_BINDER,
    FORMULA,
    HYP,
    HYP_BINDER,
    LITERAL,
    PROOF,
    SCHEMA,
    SHAPES,
    TERM,
    TERMS,
    App,
    AppT,
    AxProp,
    AxRep,
    Case,
    EApp,
    EAppT,
    EAxProp,
    EAxRep,
    ECase,
    EExIntro,
    EFst,
    EInd,
    EInl,
    EInr,
    ELamF,
    ELamP,
    ELet,
    EMagic,
    EPairP,
    EPropVar,
    ErasedProof,
    ESnd,
    ExIntro,
    Fst,
    Ind,
    Inl,
    Inr,
    Kind,
    LamF,
    LamP,
    Let,
    Magic,
    PairP,
    Proof,
    PropVar,
    Snd,
    proof_free_vars,
)
from .syntax import Term, Var, fresh_name, to_nameless

AnyProof = Proof | ErasedProof


# ---------------------------------------------------------------------------
# Substitution


def subst(m: AnyProof, x: str, n: AnyProof | Term) -> AnyProof:
    """M[x := N] in either calculus.

    A proof N replaces the hypothesis variable x; a term N replaces the
    first-order variable x, in embedded terms and formulas too.  Binders are
    met in field order.  One equal to x in x's namespace seals its scope;
    one free in N is renamed to the first fresh name that avoids N's free
    names, the free names of its scope and, in x's namespace, x itself.
    """
    on_hyp = not isinstance(n, Term)
    x_ns = 0 if on_hyp else 1  # index of x's namespace in (hypotheses, first-order)
    plans = _HYP_PLANS if on_hyp else _FO_PLANS
    free_n = cache(lambda: proof_free_vars(n) if on_hyp else (frozenset(), sx.free_vars(n)))

    def rec(m: AnyProof) -> AnyProof:
        plan = plans.get(type(m))
        if plan is None:
            raise TypeError(f"not a proof term: {m!r}")
        cls, hyp_var, names, binders, rewrites = plan
        if cls is None:  # a hypothesis variable
            return n if on_hyp and m.name == x else m
        vals = [getattr(m, a) for a in names]
        sealed: tuple[int, ...] = ()
        for i, ns, scope in binders:
            b = vals[i]
            if ns == x_ns and b == x:
                sealed += (i,)
                continue
            clash = free_n()[ns]
            if b not in clash:
                continue
            avoid = set(clash)
            for j, kind in scope:
                avoid |= _free_names(vals[j], kind, ns)
            if ns == x_ns:
                avoid.add(x)
            b2 = fresh_name(b, avoid)
            to = hyp_var(b2) if ns == 0 else Var(b2)
            for j, kind in scope:
                if kind is PROOF:
                    vals[j] = subst(vals[j], b, to)
                elif ns == 1:
                    vals[j] = sx.substitute(vals[j], b, to)
            vals[i] = b2
        for j, kind, over in rewrites:
            if sealed and any(i in sealed for i in over):
                continue
            v = vals[j]
            if kind is PROOF:
                vals[j] = rec(v)
            elif kind is TERMS:
                vals[j] = tuple(sx.substitute(u, x, n) for u in v)
            else:  # a term or formula
                vals[j] = sx.substitute(v, x, n)
        return cls(*vals)

    return rec(m)


subst_proof = esubst_prop = subst_proof_term = esubst_term = subst


def _free_names(v, kind: Kind, ns: int) -> frozenset[str]:
    """Free names of one field in the namespace ``ns`` (0 hypotheses, 1 first-order)."""
    if kind is PROOF:
        return proof_free_vars(v)[ns]
    return frozenset() if ns == 0 else sx.free_vars(v)


def _subst_plans(on_hyp: bool) -> dict[type, tuple]:
    """Per constructor: (class, hypothesis-variable class of its calculus,
    field names, binders as (index, namespace, scope as (index, kind)
    pairs), rewritten fields as (index, kind, binder indices over it)).
    Hypothesis variables get class None.  Substituting a term crosses
    hypothesis binders untouched, and a proof leaves terms, formulas and
    schemas as they are."""
    plans = {}
    for cls, shape in SHAPES.items():
        names = tuple(f.name for f in shape.fields)
        index = {f.name: i for i, f in enumerate(shape.fields)}
        if shape.fields[0].kind is HYP:
            plans[cls] = (None, None, names, (), ())
            continue
        kinds = (HYP_BINDER, FO_BINDER) if on_hyp else (FO_BINDER,)
        binders = tuple(
            (
                index[b.name],
                0 if b.kind is HYP_BINDER else 1,
                tuple((index[f.name], f.kind) for f in shape.fields if b.name in f.under),
            )
            for b in shape.fields
            if b.kind in kinds
        )
        touched = (PROOF,) if on_hyp else (PROOF, TERM, TERMS, FORMULA)
        rewrites = tuple(
            (index[f.name], f.kind, tuple(index[u] for u in f.under))
            for f in shape.fields
            if f.kind in touched
        )
        hyp_var = PropVar if issubclass(cls, Proof) else EPropVar
        plans[cls] = (cls, hyp_var, names, binders, rewrites)
    return plans


_HYP_PLANS = _subst_plans(True)
_FO_PLANS = _subst_plans(False)


# ---------------------------------------------------------------------------
# Erasure


def erase(m: Proof) -> ErasedProof:
    """Strip annotations; axiom and induction terms lose their term data."""
    match m:
        case PropVar(x):
            return EPropVar(x)
        case App(f, a):
            return EApp(erase(f), erase(a))
        case LamP(x, _, body):
            return ELamP(x, erase(body))
        case LamF(a, body):
            return ELamF(a, erase(body))
        case AppT(f, t):
            return EAppT(erase(f), t)
        case PairP(l, r):
            return EPairP(erase(l), erase(r))
        case Fst(a):
            return EFst(erase(a))
        case Snd(a):
            return ESnd(erase(a))
        case Inl(body, _):
            return EInl(erase(body))
        case Inr(body, _):
            return EInr(erase(body))
        case Case(s, lx, _, lb, rx, _, rb):
            return ECase(erase(s), lx, erase(lb), rx, erase(rb))
        case ExIntro(t, body, _):
            return EExIntro(t, erase(body))
        case Let(a, x, _, subj, body):
            return ELet(a, x, erase(subj), erase(body))
        case Magic(arg, _):
            return EMagic(erase(arg))
        case Ind(_, arg, _):
            return EInd(erase(arg))
        case AxRep(ax, _, _, arg):
            return EAxRep(family_name(ax), erase(arg))
        case AxProp(ax, _, _, arg):
            return EAxProp(family_name(ax), erase(arg))
    raise TypeError(f"not a proof term: {m!r}")


# ---------------------------------------------------------------------------
# Canonical nameless rendering; alpha equivalence for proofs


def _schema_canon(ax: AxiomId, fstack: tuple[str, ...]):
    match ax:
        case SepAx(z, ps, body):
            return ("sepax", len(ps), to_nameless(body, fstack + (z,) + ps))
        case ReplAx(z, y, ps, body):
            return ("replax", len(ps), to_nameless(body, fstack + (z, y) + ps))
        case IndAx(a, ps, body):
            return ("indax", len(ps), to_nameless(body, fstack + (a,) + ps))
        case _:
            return (family_name(ax),)


def canon(m: AnyProof, pstack: tuple[str, ...] = (), fstack: tuple[str, ...] = ()):
    """Nameless tuple rendering; equal tuples iff alpha-equivalent terms.

    A node renders as its tag followed by its non-binder fields in field
    order; a hypothesis variable renders as its binder's index or its name.
    """
    plan = _CANON_PLANS.get(type(m))
    if plan is None:
        raise TypeError(f"not a proof term: {m!r}")
    tag, fields = plan
    out = [tag]
    for name, kind, hyp_under, fo_under in fields:
        v = getattr(m, name)
        ps = pstack + tuple(getattr(m, b) for b in hyp_under) if hyp_under else pstack
        fs = fstack + tuple(getattr(m, b) for b in fo_under) if fo_under else fstack
        if kind is PROOF:
            out.append(canon(v, ps, fs))
        elif kind is HYP:
            for i in range(len(pstack) - 1, -1, -1):
                if pstack[i] == v:
                    return ("pb", len(pstack) - 1 - i)
            return ("pf", v)
        elif kind is TERMS:
            out.append(tuple(to_nameless(u, fs) for u in v))
        elif kind is SCHEMA:
            out.append(_schema_canon(v, fs))
        elif kind is LITERAL:
            out.append(v)
        else:  # a term or formula
            out.append(to_nameless(v, fs))
    return tuple(out)


# Per constructor: its tag and (field, kind, hypothesis binders over it,
# first-order binders over it) for each field that is not a binder.
_CANON_PLANS = {
    cls: (
        shape.tag,
        tuple(
            (f.name, f.kind, f.hyp_under, f.fo_under)
            for f in shape.fields
            if f.kind not in (HYP_BINDER, FO_BINDER)
        ),
    )
    for cls, shape in SHAPES.items()
}


def canon_key(m: Proof | ErasedProof, memo: dict[int, tuple[object, tuple]]) -> tuple:
    """canon through an identity-keyed memo owned by the caller.

    Terms are immutable and shared, so the same object is often keyed many
    times.  Each entry keeps its term alive, so an id is never reused while
    the memo lives, and the memo dies with its owner.
    """
    hit = memo.get(id(m))
    if hit is None:
        hit = memo[id(m)] = (m, canon(m))
    return hit[1]


def alpha_eq_proof(m: Proof | ErasedProof, n: Proof | ErasedProof) -> bool:
    return canon(m) == canon(n)


def axiom_id_alpha_eq(a: AxiomId, b: AxiomId) -> bool:
    """Axiom identifiers match when their schema patterns are alpha-equal."""
    return type(a) is type(b) and _schema_canon(a, ()) == _schema_canon(b, ())
