"""Substitution, erasure and alpha-equivalence for proof terms.

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
from .syntax import Term, Var, fresh_name, to_nameless


# ---------------------------------------------------------------------------
# Propositional substitution


def subst_proof(m: Proof, x: str, n: Proof) -> Proof:
    """M[x := N] on the propositional namespace."""
    free_n = cache(lambda: proof_free_vars(n))

    def under_prop(var: str, body: Proof) -> tuple[str, Proof]:
        # Shadowing callers handle; here the binder stays but may need renaming.
        pn = free_n()[0]
        if var in pn:
            pv, fv = proof_free_vars(body)
            var2 = fresh_name(var, pn | pv | {x})
            return var2, rec(subst_proof(body, var, PropVar(var2)))
        return var, rec(body)

    def under_fo(var: str, body: Proof) -> tuple[str, Proof]:
        fn = free_n()[1]
        if var in fn:
            pv, fv = proof_free_vars(body)
            var2 = fresh_name(var, fn | fv)
            return var2, rec(subst_proof_term(body, var, Var(var2)))
        return var, rec(body)

    def rec(m: Proof) -> Proof:
        match m:
            case PropVar(y):
                return n if y == x else m
            case App(f, a):
                return App(rec(f), rec(a))
            case LamP(y, dom, body):
                if y == x:
                    return m
                y2, body2 = under_prop(y, body)
                return LamP(y2, dom, body2)
            case LamF(a, body):
                a2, body2 = under_fo(a, body)
                return LamF(a2, body2)
            case AppT(f, t):
                return AppT(rec(f), t)
            case PairP(l, r):
                return PairP(rec(l), rec(r))
            case Fst(a):
                return Fst(rec(a))
            case Snd(a):
                return Snd(rec(a))
            case Inl(body, ann):
                return Inl(rec(body), ann)
            case Inr(body, ann):
                return Inr(rec(body), ann)
            case Case(s, lx, la, lb, rx, ra, rb):
                s2 = rec(s)
                lx2, lb2 = (lx, lb) if lx == x else under_prop(lx, lb)
                rx2, rb2 = (rx, rb) if rx == x else under_prop(rx, rb)
                return Case(s2, lx2, la, lb2, rx2, ra, rb2)
            case ExIntro(t, body, ann):
                return ExIntro(t, rec(body), ann)
            case Let(a, y, ann, subj, body):
                subj2 = rec(subj)
                pn, fn = free_n()
                ann2, a2, y2, body2 = ann, a, y, body
                if a in fn:
                    pv, fv = proof_free_vars(body)
                    a2 = fresh_name(a, fn | fv | sx.free_vars(ann))
                    ann2 = sx.substitute(ann, a, Var(a2))
                    body2 = subst_proof_term(body, a, Var(a2))
                if y == x:
                    return Let(a2, y, ann2, subj2, body2)
                if y in pn:
                    pv, fv = proof_free_vars(body2)
                    y2 = fresh_name(y, pn | pv | {x})
                    body2 = subst_proof(body2, y, PropVar(y2))
                return Let(a2, y2, ann2, subj2, rec(body2))
            case Magic(arg, ann):
                return Magic(rec(arg), ann)
            case Ind(schema, arg, ts):
                return Ind(schema, rec(arg), ts)
            case AxRep(ax, t, args, arg):
                return AxRep(ax, t, args, rec(arg))
            case AxProp(ax, t, args, arg):
                return AxProp(ax, t, args, rec(arg))
        raise TypeError(f"not a proof term: {m!r}")

    return rec(m)


# ---------------------------------------------------------------------------
# First-order substitution


def subst_proof_term(m: Proof, a: str, t: Term) -> Proof:
    """M[a := t]: rewrites embedded terms and formula annotations too."""
    free_t = cache(lambda: sx.free_vars(t))

    def f(phi: sx.Formula) -> sx.Formula:
        return sx.substitute(phi, a, t)

    def tm(u: Term) -> Term:
        return sx.substitute(u, a, t)

    def under_fo(var: str, body: Proof, anns: tuple[sx.Formula, ...] = ()):
        """Enter a first-order binder: stop if shadowing, rename on capture."""
        if var == a:
            return var, body, anns, False
        ft = free_t()
        if var in ft:
            pv, fv = proof_free_vars(body)
            avoid = ft | fv | {a}
            for an in anns:
                avoid |= sx.free_vars(an)
            var2 = fresh_name(var, avoid)
            body2 = subst_proof_term(body, var, Var(var2))
            anns2 = tuple(sx.substitute(an, var, Var(var2)) for an in anns)
            return var2, body2, anns2, True
        return var, body, anns, True

    def rec(m: Proof) -> Proof:
        match m:
            case PropVar():
                return m
            case App(fn, arg):
                return App(rec(fn), rec(arg))
            case LamP(x, dom, body):
                return LamP(x, f(dom), rec(body))
            case LamF(b, body):
                b2, body2, _, descend = under_fo(b, body)
                return LamF(b2, rec(body2) if descend else body2)
            case AppT(fn, u):
                return AppT(rec(fn), tm(u))
            case PairP(l, r):
                return PairP(rec(l), rec(r))
            case Fst(arg):
                return Fst(rec(arg))
            case Snd(arg):
                return Snd(rec(arg))
            case Inl(body, ann):
                return Inl(rec(body), f(ann))
            case Inr(body, ann):
                return Inr(rec(body), f(ann))
            case Case(s, lx, la, lb, rx, ra, rb):
                return Case(rec(s), lx, f(la), rec(lb), rx, f(ra), rec(rb))
            case ExIntro(u, body, ann):
                return ExIntro(tm(u), rec(body), f(ann))
            case Let(b, y, ann, subj, body):
                subj2 = rec(subj)
                b2, body2, (ann2,), descend = under_fo(b, body, (ann,))
                if descend:
                    body2 = rec(body2)
                    ann2 = f(ann2)
                return Let(b2, y, ann2, subj2, body2)
            case Magic(arg, ann):
                return Magic(rec(arg), f(ann))
            case Ind(schema, arg, ts):
                return Ind(schema, rec(arg), tuple(tm(u) for u in ts))
            case AxRep(ax, u, args, arg):
                return AxRep(ax, tm(u), tuple(tm(v) for v in args), rec(arg))
            case AxProp(ax, u, args, arg):
                return AxProp(ax, tm(u), tuple(tm(v) for v in args), rec(arg))
        raise TypeError(f"not a proof term: {m!r}")

    return rec(m)


# ---------------------------------------------------------------------------
# Erased substitution (same shape, no annotations)


def esubst_prop(m: ErasedProof, x: str, n: ErasedProof) -> ErasedProof:
    free_n = cache(lambda: proof_free_vars(n))

    def under_prop(var: str, body: ErasedProof) -> tuple[str, ErasedProof]:
        pn = free_n()[0]
        if var in pn:
            pv, fv = proof_free_vars(body)
            var2 = fresh_name(var, pn | pv | {x})
            return var2, rec(esubst_prop(body, var, EPropVar(var2)))
        return var, rec(body)

    def rec(m: ErasedProof) -> ErasedProof:
        match m:
            case EPropVar(y):
                return n if y == x else m
            case EApp(f, a):
                return EApp(rec(f), rec(a))
            case ELamP(y, body):
                if y == x:
                    return m
                y2, body2 = under_prop(y, body)
                return ELamP(y2, body2)
            case ELamF(a, body):
                fn = free_n()[1]
                if a in fn:
                    pv, fv = proof_free_vars(body)
                    a2 = fresh_name(a, fn | fv)
                    return ELamF(a2, rec(esubst_term(body, a, Var(a2))))
                return ELamF(a, rec(body))
            case EAppT(f, t):
                return EAppT(rec(f), t)
            case EPairP(l, r):
                return EPairP(rec(l), rec(r))
            case EFst(a):
                return EFst(rec(a))
            case ESnd(a):
                return ESnd(rec(a))
            case EInl(body):
                return EInl(rec(body))
            case EInr(body):
                return EInr(rec(body))
            case ECase(s, lx, lb, rx, rb):
                s2 = rec(s)
                lx2, lb2 = (lx, lb) if lx == x else under_prop(lx, lb)
                rx2, rb2 = (rx, rb) if rx == x else under_prop(rx, rb)
                return ECase(s2, lx2, lb2, rx2, rb2)
            case EExIntro(t, body):
                return EExIntro(t, rec(body))
            case ELet(a, y, subj, body):
                subj2 = rec(subj)
                pn, fn = free_n()
                a2, y2, body2 = a, y, body
                if a in fn:
                    pv, fv = proof_free_vars(body)
                    a2 = fresh_name(a, fn | fv)
                    body2 = esubst_term(body, a, Var(a2))
                if y == x:
                    return ELet(a2, y, subj2, body2)
                if y in pn:
                    pv, fv = proof_free_vars(body2)
                    y2 = fresh_name(y, pn | pv | {x})
                    body2 = esubst_prop(body2, y, EPropVar(y2))
                return ELet(a2, y2, subj2, rec(body2))
            case EMagic(arg):
                return EMagic(rec(arg))
            case EInd(arg):
                return EInd(rec(arg))
            case EAxRep(fam, arg):
                return EAxRep(fam, rec(arg))
            case EAxProp(fam, arg):
                return EAxProp(fam, rec(arg))
        raise TypeError(f"not an erased proof term: {m!r}")

    return rec(m)


def esubst_term(m: ErasedProof, a: str, t: Term) -> ErasedProof:
    free_t = cache(lambda: sx.free_vars(t))

    def under_fo(b: str, body: ErasedProof) -> tuple[str, ErasedProof]:
        ft = free_t()
        if b in ft:
            pv, fv = proof_free_vars(body)
            b2 = fresh_name(b, ft | fv | {a})
            return b2, rec(esubst_term(body, b, Var(b2)))
        return b, rec(body)

    def rec(m: ErasedProof) -> ErasedProof:
        match m:
            case EPropVar():
                return m
            case EApp(f, arg):
                return EApp(rec(f), rec(arg))
            case ELamP(x, body):
                return ELamP(x, rec(body))
            case ELamF(b, body):
                if b == a:
                    return m
                return ELamF(*under_fo(b, body))
            case EAppT(f, u):
                return EAppT(rec(f), sx.substitute(u, a, t))
            case EPairP(l, r):
                return EPairP(rec(l), rec(r))
            case EFst(arg):
                return EFst(rec(arg))
            case ESnd(arg):
                return ESnd(rec(arg))
            case EInl(body):
                return EInl(rec(body))
            case EInr(body):
                return EInr(rec(body))
            case ECase(s, lx, lb, rx, rb):
                return ECase(rec(s), lx, rec(lb), rx, rec(rb))
            case EExIntro(u, body):
                return EExIntro(sx.substitute(u, a, t), rec(body))
            case ELet(b, y, subj, body):
                subj2 = rec(subj)
                if b == a:
                    return ELet(b, y, subj2, body)
                b2, body2 = under_fo(b, body)
                return ELet(b2, y, subj2, body2)
            case EMagic(arg):
                return EMagic(rec(arg))
            case EInd(arg):
                return EInd(rec(arg))
            case EAxRep(fam, arg):
                return EAxRep(fam, rec(arg))
            case EAxProp(fam, arg):
                return EAxProp(fam, rec(arg))
        raise TypeError(f"not an erased proof term: {m!r}")

    return rec(m)


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


def canon(m: Proof | ErasedProof, pstack: tuple[str, ...] = (), fstack: tuple[str, ...] = ()):
    """Nameless tuple rendering; equal tuples iff alpha-equivalent terms."""

    def pvar(x: str):
        for i in range(len(pstack) - 1, -1, -1):
            if pstack[i] == x:
                return ("pb", len(pstack) - 1 - i)
        return ("pf", x)

    def t(u: Term):
        return to_nameless(u, fstack)

    def f(phi: sx.Formula):
        return to_nameless(phi, fstack)

    match m:
        case PropVar(x) | EPropVar(x):
            return pvar(x)
        case App(fn, a):
            return ("app", canon(fn, pstack, fstack), canon(a, pstack, fstack))
        case EApp(fn, a):
            return ("app", canon(fn, pstack, fstack), canon(a, pstack, fstack))
        case LamP(x, dom, body):
            return ("lamp", f(dom), canon(body, pstack + (x,), fstack))
        case ELamP(x, body):
            return ("lamp", canon(body, pstack + (x,), fstack))
        case LamF(a, body) | ELamF(a, body):
            return ("lamf", canon(body, pstack, fstack + (a,)))
        case AppT(fn, u) | EAppT(fn, u):
            return ("appt", canon(fn, pstack, fstack), t(u))
        case PairP(l, r) | EPairP(l, r):
            return ("pairp", canon(l, pstack, fstack), canon(r, pstack, fstack))
        case Fst(a) | EFst(a):
            return ("fst", canon(a, pstack, fstack))
        case Snd(a) | ESnd(a):
            return ("snd", canon(a, pstack, fstack))
        case Inl(body, ann):
            return ("inl", f(ann), canon(body, pstack, fstack))
        case EInl(body):
            return ("inl", canon(body, pstack, fstack))
        case Inr(body, ann):
            return ("inr", f(ann), canon(body, pstack, fstack))
        case EInr(body):
            return ("inr", canon(body, pstack, fstack))
        case Case(s, lx, la, lb, rx, ra, rb):
            return (
                "case",
                canon(s, pstack, fstack),
                f(la),
                canon(lb, pstack + (lx,), fstack),
                f(ra),
                canon(rb, pstack + (rx,), fstack),
            )
        case ECase(s, lx, lb, rx, rb):
            return (
                "case",
                canon(s, pstack, fstack),
                canon(lb, pstack + (lx,), fstack),
                canon(rb, pstack + (rx,), fstack),
            )
        case ExIntro(u, body, ann):
            return ("exi", t(u), f(ann), canon(body, pstack, fstack))
        case EExIntro(u, body):
            return ("exi", t(u), canon(body, pstack, fstack))
        case Let(a, x, ann, subj, body):
            return (
                "let",
                to_nameless(ann, fstack + (a,)),
                canon(subj, pstack, fstack),
                canon(body, pstack + (x,), fstack + (a,)),
            )
        case ELet(a, x, subj, body):
            return (
                "let",
                canon(subj, pstack, fstack),
                canon(body, pstack + (x,), fstack + (a,)),
            )
        case Magic(arg, ann):
            return ("magic", f(ann), canon(arg, pstack, fstack))
        case EMagic(arg):
            return ("magic", canon(arg, pstack, fstack))
        case Ind(schema, arg, ts):
            return (
                "ind",
                _schema_canon(schema, fstack),
                canon(arg, pstack, fstack),
                tuple(t(u) for u in ts),
            )
        case EInd(arg):
            return ("ind", canon(arg, pstack, fstack))
        case AxRep(ax, u, args, arg):
            return (
                "axrep",
                _schema_canon(ax, fstack),
                t(u),
                tuple(t(v) for v in args),
                canon(arg, pstack, fstack),
            )
        case EAxRep(fam, arg):
            return ("axrep", fam, canon(arg, pstack, fstack))
        case AxProp(ax, u, args, arg):
            return (
                "axprop",
                _schema_canon(ax, fstack),
                t(u),
                tuple(t(v) for v in args),
                canon(arg, pstack, fstack),
            )
        case EAxProp(fam, arg):
            return ("axprop", fam, canon(arg, pstack, fstack))
    raise TypeError(f"not a proof term: {m!r}")


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
