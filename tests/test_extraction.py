import pytest

from izf.extraction import (
    DepthExceeded,
    ExtractionConfig,
    OpenTermError,
    ShapeError,
    Side,
    UnsupportedTermError,
    defining_formula,
    extract_dp,
    extract_numeral,
    extract_witness,
)
from izf.lemmas import build_numeral_proof, mk_eq_refl
from izf.proofs import AppT, Case, ExIntro, Inl, Inr, LamP, Let, PropVar
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
    Sep,
    UnionT,
    Var,
    alpha_eq,
    free_vars,
    iff,
    numeral,
    substitute,
)
from izf.typecheck import check, checks

B = Bottom()
IDB = LamP("x", B, PropVar("x"))
CFG = ExtractionConfig(fuel=10**4)


def test_extract_dp_inl_inr():
    d = Or(Imp(B, B), B)
    side, sub = extract_dp(Inl(IDB, d), CFG)
    assert side is Side.LEFT and checks((), sub, Imp(B, B))
    d2 = Or(B, Imp(B, B))
    side, sub = extract_dp(Inr(IDB, d2), CFG)
    assert side is Side.RIGHT


def test_extract_dp_through_case():
    phi, psi = Imp(B, B), B
    d = Or(phi, psi)
    swapped = Or(psi, phi)
    m = Case(Inl(IDB, d), "x", phi, Inr(PropVar("x"), swapped), "x", psi, Inl(PropVar("x"), swapped))
    side, sub = extract_dp(m, CFG)
    assert side is Side.RIGHT
    assert checks((), sub, phi)


def test_extract_dp_wrong_shape():
    with pytest.raises(ShapeError):
        extract_dp(IDB, CFG)


def test_extract_witness_direct():
    er = mk_eq_refl()
    ann = Exists("a", Eq(Var("a"), Var("a")))
    m = ExIntro(Empty(), AppT(er, Empty()), ann)
    t, sub = extract_witness(m, CFG)
    assert t == Empty()
    assert checks((), sub, Eq(Empty(), Empty()))


def test_extract_witness_omega():
    er = mk_eq_refl()
    ann = Exists("x", Eq(Var("x"), Omega()))
    m = ExIntro(Omega(), AppT(er, Omega()), ann)
    t, sub = extract_witness(m, CFG)
    assert t == Omega()
    assert checks((), sub, Eq(Omega(), Omega()))


def test_extract_witness_after_let_step():
    er = mk_eq_refl()
    ezero = Eq(Empty(), Empty())
    ann = Exists("a", ezero)
    inner = ExIntro(Empty(), AppT(er, Empty()), ann)
    wrapped = Let("b", "x", ann, ExIntro(Empty(), inner, Exists("b", ann)), PropVar("x"))
    t, sub = extract_witness(wrapped, CFG)
    assert t == Empty()


@pytest.mark.parametrize("n", range(6))
def test_numeral_round_trip(n):
    assert extract_numeral(build_numeral_proof(n), CFG) == n


def test_extract_numeral_wrong_goal_shape():
    # a proof of empty in power empty is not a membership in omega
    from izf.axioms import InAx, PowerAx, phi_A
    from izf.proofs import AxRep, LamF, PairP

    er = mk_eq_refl()
    b = Var("b")
    ini_pe = AxRep(
        PowerAx(), Empty(), (Empty(),), LamF("b", LamP("x", Mem(b, Empty()), PropVar("x")))
    )
    m = AxRep(
        InAx(),
        Empty(),
        (PowerT(Empty()),),
        ExIntro(
            Empty(),
            PairP(ini_pe, AppT(er, Empty())),
            phi_A(InAx(), Empty(), (PowerT(Empty()),)),
        ),
    )
    check((), m, Mem(Empty(), PowerT(Empty())))
    with pytest.raises(ShapeError):
        extract_numeral(m, CFG)


def test_extract_numeral_depth_cap():
    with pytest.raises(DepthExceeded):
        extract_numeral(build_numeral_proof(4), ExtractionConfig(fuel=10**4, depth_cap=3))


def test_paranoid_mode_round_trip():
    cfg = ExtractionConfig(fuel=10**4, paranoid=True)
    assert extract_numeral(build_numeral_proof(3), cfg) == 3


def _function_free(phi) -> bool:
    from izf.syntax import And as A, Bottom as Bo, Eq as E, Exists as Ex, Forall as Fa, Imp as I, Mem as M, MemI as MI, Or as O

    match phi:
        case Bo():
            return True
        case MI(l, r) | M(l, r) | E(l, r):
            return isinstance(l, Var) and isinstance(r, Var)
        case A(l, r) | O(l, r) | I(l, r):
            return _function_free(l) and _function_free(r)
        case Fa(_, body) | Ex(_, body):
            return _function_free(body)
    return False


def test_defining_formula_empty():
    got = defining_formula(Empty(), "x")
    assert got == Forall("c", Imp(Mem(Var("c"), Var("x")), Bottom()))


def test_defining_formula_power_empty():
    got = defining_formula(PowerT(Empty()), "x")
    want = Exists(
        "e",
        And(
            Forall("c", Imp(Mem(Var("c"), Var("e")), Bottom())),
            Forall(
                "c",
                iff(
                    Mem(Var("c"), Var("x")),
                    Forall("b", Imp(Mem(Var("b"), Var("c")), Mem(Var("b"), Var("e")))),
                ),
            ),
        ),
    )
    from izf.syntax import alpha_eq

    assert alpha_eq(got, want)


@pytest.mark.parametrize(
    "t",
    [
        Empty(),
        Omega(),
        PowerT(Empty()),
        UnionT(PairT(Empty(), PowerT(Empty()))),
        PairT(Empty(), Omega()),
        Sep("z", (), Mem(Var("z"), Var("z")), Omega(), ()),
        Inac(1),
        numeral(2),
    ],
)
def test_defining_formula_scan(t):
    got = defining_formula(t, "x")
    assert free_vars(got) == {"x"}
    assert _function_free(got)


@pytest.mark.parametrize("t", [Omega(), Inac(1), Inac(2), PairT(Empty(), Omega()), PowerT(Inac(1))])
def test_defining_formula_names_its_variable_without_capture(t):
    # The constant of a self-referential characterization becomes the defined
    # variable; no binder of the axiom formula may capture it.
    generic = defining_formula(t, "q")
    for n in "x y z u a b c d e f w".split():
        assert alpha_eq(defining_formula(t, n), substitute(generic, "q", Var(n))), n


def test_defining_formula_open_term_rejected():
    with pytest.raises(OpenTermError):
        defining_formula(Var("a"), "x")


def test_defining_formula_intensional_compound_rejected():
    bad = Sep("z", (), MemI(Var("z"), Omega()), Empty(), ())
    with pytest.raises(UnsupportedTermError):
        defining_formula(bad, "x")


def test_extract_dp_fuel_exhaustion():
    from izf.reduction import FuelExhausted

    from izf.proofs import App

    d = Or(Imp(B, B), B)
    i = LamP("x", d, PropVar("x"))
    m = Inl(IDB, d)
    for _ in range(30):
        m = App(i, m)
    with pytest.raises(FuelExhausted):
        extract_dp(m, ExtractionConfig(fuel=5))
    side, _ = extract_dp(m, ExtractionConfig(fuel=100))
    assert side is Side.LEFT


def test_dp_sweep_over_disjunctive_corpus():
    from izf.corpus import standard_entries
    from izf.syntax import Or as OrF

    swept = 0
    for e in standard_entries():
        if not isinstance(e.formula, OrF):
            continue
        side, sub = extract_dp(e.proof, CFG)
        want = e.formula.left if side is Side.LEFT else e.formula.right
        from izf.typecheck import check

        check((), sub, want)
        swept += 1
    assert swept >= 1


def test_witness_sweep_over_existential_corpus():
    from izf.corpus import standard_entries
    from izf.syntax import Exists as ExF

    for e in standard_entries():
        if isinstance(e.formula, ExF):
            t, sub = extract_witness(e.proof, CFG)
            from izf.syntax import substitute
            from izf.typecheck import check

            check((), sub, substitute(e.formula.body, e.formula.binder, t))
