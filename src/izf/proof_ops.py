"""Substitution, erasure and the nameless key for proof terms.

Substitution is capture-avoiding across both namespaces.  Substituting a
term is ``syntax.substitute``, which reads proof shapes like any other and
rewrites embedded terms, formulas, annotations and axiom schemas as well.
Substituting a proof is planned here from ``proofs.SHAPES``: it must dodge
both propositional and first-order binders, and computes the free variables
of what it substitutes at most once, when it first crosses a binder.

``canon`` is the proof-level nameless key, ``syntax.to_nameless`` itself:
proof binders become indices like first-order ones, and an axiom identifier
renders as its schema's key or, without a schema, its family tag.  Equal
keys mean alpha-equal terms, so the key is the state key of cycle detection
and the memo key of the realizability evaluator.  ``canon_key`` memoises it
in a dict the caller owns (the evaluator keeps one per instance); this
module holds no cache.
"""

from __future__ import annotations

from functools import cache

from . import syntax as sx
from .axioms import family_name
from .proofs import (
    SHAPES,
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
from .syntax import (
    FO_BINDER,
    HYP,
    HYP_BINDER,
    PROOF,
    Term,
    Var,
    fresh_name,
    to_nameless,
)

AnyProof = Proof | ErasedProof


# ---------------------------------------------------------------------------
# Substitution


def subst(m: AnyProof, x: str, n: AnyProof | Term) -> AnyProof:
    """M[x := N] in either calculus.

    A term N replaces the first-order variable x through
    ``syntax.substitute``, which reads proof shapes like any other.  A proof
    N replaces the hypothesis variable x.  Binders are met in field order.
    A hypothesis binder named x seals its scope; a binder free in N is
    renamed to the first fresh name that avoids N's free names and the free
    names of its scope in its namespace, and x itself for a hypothesis binder.
    """
    if isinstance(n, Term):
        return sx.substitute(m, x, n)
    free_n = cache(lambda: proof_free_vars(n))

    def rec(m: AnyProof) -> AnyProof:
        plan = _PLANS.get(type(m))
        if plan is None:
            raise TypeError(f"not a proof term: {m!r}")
        cls, hyp_var, names, binders, proofs = plan
        if cls is None:  # a hypothesis variable
            return n if m.name == x else m
        vals = [getattr(m, a) for a in names]
        sealed: tuple[int, ...] = ()
        for i, ns, scope in binders:
            b = vals[i]
            if ns == 0 and b == x:
                sealed += (i,)
                continue
            clash = free_n()[ns]
            if b not in clash:
                continue
            avoid = set(clash).union(*(proof_free_vars(vals[j])[ns] for j in scope))
            if ns == 0:
                avoid.add(x)
            b2 = fresh_name(b, avoid)
            for j in scope:
                if ns == 0:
                    vals[j] = subst(vals[j], b, hyp_var(b2))
                else:
                    vals[j] = sx.substitute(vals[j], b, Var(b2))
            vals[i] = b2
        for j, over in proofs:
            if not (sealed and any(i in sealed for i in over)):
                vals[j] = rec(vals[j])
        return cls(*vals)

    return rec(m)


subst_proof = esubst_prop = subst_proof_term = esubst_term = subst


def _subst_plans() -> dict[type, tuple]:
    """Per constructor: (class, hypothesis-variable class of its calculus,
    field names, binders as (index, namespace 0 for hypotheses or 1 for
    first-order, indices of the fields in their scope), sub-proofs as
    (index, indices of the binders over it)).  Hypothesis variables get
    class None."""
    plans = {}
    for cls, shape in SHAPES.items():
        names = tuple(f.name for f in shape.fields)
        index = {f.name: i for i, f in enumerate(shape.fields)}
        if shape.fields[0].kind is HYP:
            plans[cls] = (None, None, names, (), ())
            continue
        binders = tuple(
            (
                index[b.name],
                0 if b.kind is HYP_BINDER else 1,
                tuple(index[f.name] for f in shape.fields if b.name in f.under),
            )
            for b in shape.fields
            if b.kind in (HYP_BINDER, FO_BINDER)
        )
        proofs = tuple(
            (index[f.name], tuple(index[u] for u in f.under))
            for f in shape.fields
            if f.kind is PROOF
        )
        hyp_var = PropVar if issubclass(cls, Proof) else EPropVar
        plans[cls] = (cls, hyp_var, names, binders, proofs)
    return plans


_PLANS = _subst_plans()


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


canon = to_nameless


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
