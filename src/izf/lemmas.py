"""Checker-validated proof terms for the derived equality lemmas.

The constructions follow the informal equality proofs: reflexivity by set
induction, transitivity by set induction on the middle argument with the
two membership unfoldings chained through the inductive hypothesis, and the
membership-respects-equality lemma composing symmetry and transitivity.
"""

from __future__ import annotations

from .axioms import EqAx, InAx, IndAx, phi_A
from .proofs import (
    App,
    AppT,
    AxProp,
    AxRep,
    ExIntro,
    Fst,
    Ind,
    LamF,
    LamP,
    Let,
    PairP,
    Proof,
    PropVar,
    Snd,
)
from .syntax import And, Eq, Forall, Formula, Imp, Mem, MemI, Omega, Term, Var, numeral


def _v(name: str) -> Var:
    return Var(name)


def in_rep(t: Term, u: Term, m: Proof) -> Proof:
    return AxRep(InAx(), t, (u,), m)


def in_prop(t: Term, u: Term, m: Proof) -> Proof:
    return AxProp(InAx(), t, (u,), m)


def eq_rep(t: Term, u: Term, m: Proof) -> Proof:
    return AxRep(EqAx(), t, (u,), m)


def eq_prop(t: Term, u: Term, m: Proof) -> Proof:
    return AxProp(EqAx(), t, (u,), m)


def ex_in(t: Term, u: Term, witness: Term, body: Proof) -> Proof:
    """[witness, body] at the existential shape of the (IN) right-hand side."""
    return ExIntro(witness, body, phi_A(InAx(), t, (u,)))


def eq_refl_formula() -> Formula:
    return Forall("a", Eq(_v("a"), _v("a")))


def mk_eq_refl() -> Proof:
    """ind of: given c and the hypothesis below c, both directions are the
    membership-with-reflexivity embedding."""
    a, b, c, d, x, y = "a", "b", "c", "d", "x", "y"
    ih = Forall(b, Imp(MemI(_v(b), _v(c)), Eq(_v(b), _v(b))))
    side = LamP(
        y,
        MemI(_v(d), _v(c)),
        in_rep(
            _v(d),
            _v(c),
            ex_in(_v(d), _v(c), _v(d), PairP(PropVar(y), App(AppT(PropVar(x), _v(d)), PropVar(y)))),
        ),
    )
    m = LamF(c, LamP(x, ih, eq_rep(_v(c), _v(c), LamF(d, PairP(side, side)))))
    return Ind(IndAx(a, (), Eq(_v(a), _v(a))), m, ())


def eq_symm_formula() -> Formula:
    return Forall("a", Forall("b", Imp(Eq(_v("a"), _v("b")), Eq(_v("b"), _v("a")))))


def mk_eq_symm() -> Proof:
    a, b, d, x = "a", "b", "d", "x"
    flip = lambda: AppT(eq_prop(_v(a), _v(b), PropVar(x)), _v(d))
    return LamF(
        a,
        LamF(
            b,
            LamP(
                x,
                Eq(_v(a), _v(b)),
                eq_rep(_v(b), _v(a), LamF(d, PairP(Snd(flip()), Fst(flip())))),
            ),
        ),
    )


def eq_trans_formula() -> Formula:
    a, b, c = _v("a"), _v("b"), _v("c")
    return Forall(
        "b", Forall("a", Forall("c", Imp(And(Eq(a, b), Eq(b, c)), Eq(a, c))))
    )


def mk_eq_trans() -> Proof:
    """Set induction on the middle argument; both directions thread the
    inductive hypothesis through the two unfolded memberships."""
    b = _v("b")
    a1, c, f, a2, a3 = _v("a1"), _v("c"), _v("f"), _v("a2"), _v("a3")
    x1, x2, x3, x4, x5 = (PropVar(n) for n in ("x1", "x2", "x3", "x4", "x5"))
    schema = IndAx(
        "b", (), Forall("a", Forall("c", Imp(And(Eq(_v("a"), b), Eq(b, _v("c"))), Eq(_v("a"), _v("c")))))
    )
    ih = Forall(
        "e",
        Imp(
            MemI(_v("e"), b),
            Forall("a", Forall("c", Imp(And(Eq(_v("a"), _v("e")), Eq(_v("e"), _v("c"))), Eq(_v("a"), _v("c"))))),
        ),
    )

    # x1 a2 fst(x4) f a3 <snd(x4), snd(x5)> : f = a3
    chained = App(
        AppT(AppT(App(AppT(x1, a2), Fst(x4)), f), a3),
        PairP(Snd(x4), Snd(x5)),
    )

    def letann(member: Var, of: Term, binder: str) -> Formula:
        return And(MemI(_v(binder), of), Eq(member, _v(binder)))

    n2 = in_rep(f, c, ex_in(f, c, a3, PairP(Fst(x5), chained)))
    n1 = Let(
        "a3",
        "x5",
        letann(a2, c, "a3"),
        in_prop(a2, c, App(Fst(AppT(eq_prop(b, c, Snd(x2)), a2)), Fst(x4))),
        n2,
    )
    n0 = LamP(
        "x3",
        MemI(f, a1),
        Let(
            "a2",
            "x4",
            letann(f, b, "a2"),
            in_prop(f, b, App(Fst(AppT(eq_prop(a1, b, Fst(x2)), f)), x3)),
            n1,
        ),
    )

    o2 = in_rep(f, a1, ex_in(f, a1, a3, PairP(Fst(x5), chained)))
    o1 = Let(
        "a3",
        "x5",
        letann(a2, a1, "a3"),
        in_prop(a2, a1, App(Snd(AppT(eq_prop(a1, b, Fst(x2)), a2)), Fst(x4))),
        o2,
    )
    o0 = LamP(
        "x3",
        MemI(f, c),
        Let(
            "a2",
            "x4",
            letann(f, b, "a2"),
            in_prop(f, b, App(Snd(AppT(eq_prop(b, c, Snd(x2)), f)), x3)),
            o1,
        ),
    )

    m0 = LamF(
        "b",
        LamP(
            "x1",
            ih,
            LamF(
                "a1",
                LamF(
                    "c",
                    LamP(
                        "x2",
                        And(Eq(a1, b), Eq(b, c)),
                        eq_rep(a1, c, LamF("f", PairP(n0, o0))),
                    ),
                ),
            ),
        ),
    )
    return Ind(schema, m0, ())


def lei_formula() -> Formula:
    a, b, c = _v("a"), _v("b"), _v("c")
    return Forall("a", Forall("b", Forall("c", Imp(And(Mem(a, c), Eq(a, b)), Mem(b, c)))))


def mk_lei(eq_symm: Proof | None = None, eq_trans: Proof | None = None) -> Proof:
    a, b, c, d = _v("a"), _v("b"), _v("c"), _v("d")
    x, y = PropVar("x"), PropVar("y")
    eq_symm = eq_symm if eq_symm is not None else mk_eq_symm()
    eq_trans = eq_trans if eq_trans is not None else mk_eq_trans()
    b_eq_d = App(
        AppT(AppT(AppT(eq_trans, a), b), d),
        PairP(App(AppT(AppT(eq_symm, a), b), Snd(x)), Snd(y)),
    )
    body = Let(
        "d",
        "y",
        And(MemI(d, c), Eq(a, d)),
        in_prop(a, c, Fst(x)),
        in_rep(b, c, ex_in(b, c, d, PairP(Fst(y), b_eq_d))),
    )
    return LamF(
        "a", LamF("b", LamF("c", LamP("x", And(Mem(a, c), Eq(a, b)), body)))
    )


def ext_formula() -> Formula:
    a, b, d = _v("a"), _v("b"), _v("d")
    both = Forall("d", And(Imp(Mem(d, a), Mem(d, b)), Imp(Mem(d, b), Mem(d, a))))
    return Forall("a", Forall("b", Imp(both, Eq(a, b))))


def mk_ext(eq_refl: Proof | None = None) -> Proof:
    """Extensionality: embed an intensional member and push it across x."""
    a, b, d = _v("a"), _v("b"), _v("d")
    x, y = PropVar("x"), PropVar("y")
    eq_refl = eq_refl if eq_refl is not None else mk_eq_refl()

    def embed(t: Term, u: Term) -> Proof:
        # From y : t intensionally in u, conclude t in u.
        return in_rep(t, u, ex_in(t, u, t, PairP(y, AppT(eq_refl, t))))

    fwd = LamP("y", MemI(d, a), App(Fst(AppT(x, d)), embed(d, a)))
    bwd = LamP("y", MemI(d, b), App(Snd(AppT(x, d)), embed(d, b)))
    hypo = Forall("d", And(Imp(Mem(d, a), Mem(d, b)), Imp(Mem(d, b), Mem(d, a))))
    return LamF(
        "a",
        LamF("b", LamP("x", hypo, eq_rep(a, b, LamF("d", PairP(fwd, bwd))))),
    )


# ---------------------------------------------------------------------------
# Numeral membership proofs


def numeral_mem_formula(n: int) -> Formula:
    return Mem(numeral(n), Omega())


def build_numeral_proof(n: int, eq_refl: Proof | None = None) -> Proof:
    """A proof that the n-th numeral is a member of omega.

    Structurally n nested successor layers over the zero disjunct: each
    layer embeds the previous proof through the infinity axiom's successor
    clause, then through the (IN) axiom.
    """
    if n < 0:
        raise ValueError("numerals are non-negative")
    from .axioms import InfAx
    from .proofs import Inl, Inr

    eq_refl = eq_refl if eq_refl is not None else mk_eq_refl()

    def refl_at(t: Term) -> Proof:
        return AppT(eq_refl, t)

    def mem_omega(k: int) -> Proof:
        t = numeral(k)
        inf_phi = phi_A(InfAx(), t, ())
        if k == 0:
            disj: Proof = Inl(refl_at(t), inf_phi)
        else:
            prev = numeral(k - 1)
            # exists b. b in omega /\ t = S(b), witnessed by the previous numeral
            ex_ann = inf_phi.right
            body = ExIntro(prev, PairP(mem_omega(k - 1), refl_at(t)), ex_ann)
            disj = Inr(body, inf_phi)
        ini_omega = AxRep(InfAx(), t, (), disj)
        return in_rep(t, Omega(), ex_in(t, Omega(), t, PairP(ini_omega, refl_at(t))))

    return mem_omega(n)
