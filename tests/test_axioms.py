import random

import pytest

from gens import rand_term
from izf.axioms import (
    ArityError,
    EmptyAx,
    EqAx,
    InacAx,
    InAx,
    IndAx,
    InfAx,
    NoTermFormError,
    NwfAx,
    PairAx,
    PowerAx,
    ReplAx,
    Sep0Ax,
    SepAx,
    UnionAx,
    axiom_statement,
    conjuncts,
    disjuncts,
    inac_phi1,
    inac_phi2,
    phi_A,
    term_head,
)
from izf.syntax import (
    And,
    Bottom,
    Empty,
    Eq,
    Exists,
    Forall,
    Imp,
    Inac,
    Mem,
    MemI,
    Omega,
    Or,
    PairT,
    PowerT,
    UnionT,
    Var,
    alpha_eq,
    free_vars,
    substitute,
    succ_term,
)

a, b, c, d = Var("a"), Var("b"), Var("c"), Var("d")


def test_phi_pair():
    assert phi_A(PairAx(), c, (a, b)) == Or(Eq(c, a), Eq(c, b))


def test_phi_empty():
    assert phi_A(EmptyAx(), c, ()) == Bottom()


def test_phi_inf_desugared():
    got = phi_A(InfAx(), c, ())
    want = Or(Eq(c, Empty()), Exists("b", And(Mem(b, Omega()), Eq(c, succ_term(b)))))
    assert alpha_eq(got, want)


def test_phi_arity_mismatch():
    with pytest.raises(ArityError):
        phi_A(PairAx(), c, (a,))


def test_inac_phi1_clauses():
    d1 = disjuncts(inac_phi1(1, "c"))
    assert len(d1) == 5
    assert d1[0] == Eq(c, Omega())
    assert alpha_eq(d1[2], Exists("a", And(Mem(a, Inac(1)), Eq(c, UnionT(a)))))
    d2 = disjuncts(inac_phi1(2, "c"))
    assert d2[0] == Eq(c, Inac(1))


def test_inac_phi2_clauses():
    cl = conjuncts(inac_phi2(1, "d"))
    assert len(cl) == 5
    assert cl[0] == Mem(Omega(), d)
    want2 = Forall("e", Forall("f", Imp(And(Mem(Var("e"), d), Mem(Var("f"), Var("e"))), Mem(Var("f"), d))))
    assert alpha_eq(cl[1], want2)
    want4 = Forall("e", Imp(Mem(Var("e"), d), Mem(PowerT(Var("e")), d)))
    assert alpha_eq(cl[3], want4)


def test_inac_index_zero_rejected():
    with pytest.raises(ValueError):
        inac_phi1(0, "c")
    with pytest.raises(ValueError):
        inac_phi2(0, "d")


def test_inac_index_shift():
    # consecutive indices differ exactly by shifting the V occurrences
    one = inac_phi1(1, "c")
    two = inac_phi1(2, "c")

    def shift(t):
        match t:
            case Omega():
                return Inac(1)
            case Inac(i):
                return Inac(i + 1)
            case PairT(l, r):
                return PairT(shift(l), shift(r))
            case UnionT(u):
                return UnionT(shift(u))
            case PowerT(u):
                return PowerT(shift(u))
            case _:
                return t

    def shift_f(phi):
        match phi:
            case Bottom():
                return phi
            case MemI(l, r):
                return MemI(shift(l), shift(r))
            case Mem(l, r):
                return Mem(shift(l), shift(r))
            case Eq(l, r):
                return Eq(shift(l), shift(r))
            case And(l, r):
                return And(shift_f(l), shift_f(r))
            case Or(l, r):
                return Or(shift_f(l), shift_f(r))
            case Imp(l, r):
                return Imp(shift_f(l), shift_f(r))
            case Forall(x, body):
                return Forall(x, shift_f(body))
            case Exists(x, body):
                return Exists(x, shift_f(body))

    assert alpha_eq(shift_f(one), two)
    assert alpha_eq(shift_f(inac_phi2(1, "d")), inac_phi2(2, "d"))


def test_axiom_statement_in():
    want = Forall(
        "a",
        Forall(
            "b",
            And(
                Imp(Mem(a, b), Exists("c", And(MemI(c, b), Eq(a, c)))),
                Imp(Exists("c", And(MemI(c, b), Eq(a, c))), Mem(a, b)),
            ),
        ),
    )
    assert alpha_eq(axiom_statement(InAx()), want)


def test_axiom_statement_eq():
    got = axiom_statement(EqAx())
    want_rhs = Forall("d", And(Imp(MemI(d, a), Mem(d, b)), Imp(MemI(d, b), Mem(d, a))))
    want = Forall("a", Forall("b", And(Imp(Eq(a, b), want_rhs), Imp(want_rhs, Eq(a, b)))))
    assert alpha_eq(got, want)


def test_axiom_statement_ind_instance():
    ind = IndAx("a", (), Eq(a, a))
    got = axiom_statement(ind)
    premise = Forall("a", Imp(Forall("b", Imp(MemI(b, a), Eq(b, b))), Eq(a, a)))
    want = Imp(premise, Forall("a", Eq(a, a)))
    assert alpha_eq(got, want)


def test_term_head_examples():
    assert term_head(PairAx(), (Empty(), Omega())) == PairT(Empty(), Omega())
    assert term_head(InacAx(3), ()) == Inac(3)
    with pytest.raises(NoTermFormError):
        term_head(InAx(), (a,))


def test_phi_uses_only_extensional_relations():
    # all schema bodies stay within in/=/bot and the connectives; the
    # induction premise alone mentions intensional membership
    def scan(phi, allow_memi):
        match phi:
            case MemI():
                assert allow_memi, f"unexpected intensional atom: {phi}"
            case Mem() | Eq() | Bottom():
                pass
            case And(l, r) | Or(l, r) | Imp(l, r):
                scan(l, allow_memi)
                scan(r, allow_memi)
            case Forall(_, body) | Exists(_, body):
                scan(body, allow_memi)

    cases = [
        (EmptyAx(), ()),
        (PairAx(), (a, b)),
        (InfAx(), ()),
        (UnionAx(), (a,)),
        (PowerAx(), (a,)),
        (SepAx("z", (), Mem(Var("z"), Var("z"))), (a,)),
        (ReplAx("z", "y", (), Eq(Var("y"), Var("z"))), (a,)),
        (InacAx(1), ()),
    ]
    for ax, args in cases:
        scan(phi_A(ax, c, args), allow_memi=False)
    scan(phi_A(IndAx("a", (), Eq(a, a)), c, ()), allow_memi=True)


SCHEMA_CASES = [
    EmptyAx(),
    PairAx(),
    InfAx(),
    UnionAx(),
    PowerAx(),
    InAx(),
    EqAx(),
    InacAx(1),
    NwfAx(),
    Sep0Ax(),
    SepAx("z", ("p",), Mem(Var("z"), Var("p"))),
    ReplAx("z", "y", ("p",), Eq(Var("y"), PairT(Var("z"), Var("p")))),
    IndAx("a", ("p",), Mem(Var("a"), Var("p"))),
]


@pytest.mark.parametrize("seed", range(4 * len(SCHEMA_CASES)))
def test_schema_instantiation_commutes_with_substitution(seed):
    # c and the arguments are drawn over names the families bind (b, d, e, x),
    # so that instantiating must avoid capture.
    rng = random.Random(seed)
    ax = SCHEMA_CASES[seed % len(SCHEMA_CASES)]
    from izf.axioms import arity

    names = ("b", "d", "e", "x")
    fresh = tuple(Var(f"v{i}") for i in range(arity(ax)))
    args = tuple(rand_term(rng, 2, names) for _ in range(arity(ax)))
    elem = rand_term(rng, 2, names)
    inst = phi_A(ax, Var("w"), fresh)
    for v, t in zip((Var("w"), *fresh), (elem, *args)):
        inst = substitute(inst, v.name, t)
    direct = phi_A(ax, elem, args)
    assert alpha_eq(inst, direct)


def test_nwf_axiom_shapes():
    got = phi_A(NwfAx(), a, ())
    cc = term_head(NwfAx(), ())
    want = Forall(
        "x",
        And(Imp(Mem(Var("x"), a), Mem(Var("x"), cc)), Imp(Mem(Var("x"), cc), Mem(Var("x"), a))),
    )
    assert alpha_eq(got, want)
    sep0 = phi_A(Sep0Ax(), a, ())
    assert alpha_eq(sep0, And(Mem(a, cc), Imp(Mem(a, a), Mem(a, cc))))
    stmt = axiom_statement(NwfAx())
    assert isinstance(stmt, Forall) and not free_vars(stmt)
