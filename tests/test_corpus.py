from izf.corpus import (
    all_entries,
    axiom_theorems,
    equality_theorems,
    numeral_theorems,
    nwf_suite,
    standard_entries,
)
from izf.axioms import axiom_statement, IndAx
from izf.lemmas import eq_refl_formula, lei_formula
from izf.proof_ops import erase
from izf.reduction import detect_cycle, normalize, simulate_erasure
from izf.syntax import Eq, Var, alpha_eq
from izf.typecheck import check


def test_entry_counts():
    assert len(axiom_theorems()) == 11
    assert len(equality_theorems()) == 5
    assert len(numeral_theorems()) == 6
    assert len(nwf_suite()) == 4


def test_axiom_theorems_state_the_axioms():
    by_name = {e.name: e for e in axiom_theorems()}
    from izf.axioms import EqAx, InAx, PairAx

    assert alpha_eq(by_name["ax_pair"].formula, axiom_statement(PairAx()))
    assert alpha_eq(by_name["ax_in"].formula, axiom_statement(InAx()))
    assert alpha_eq(by_name["ax_eq"].formula, axiom_statement(EqAx()))
    ind = IndAx("a", (), Eq(Var("a"), Var("a")))
    assert alpha_eq(by_name["ax_ind"].formula, axiom_statement(ind))


def test_equality_theorem_statements():
    names = {e.name: e for e in equality_theorems()}
    assert alpha_eq(names["eq_refl"].formula, eq_refl_formula())
    assert alpha_eq(names["eq_lei"].formula, lei_formula())


def test_every_entry_checks():
    for e in all_entries():
        check((), e.proof, e.formula, nwf=e.nwf)


def test_checks_entries_normalize_within_bounds():
    for e in all_entries():
        if not e.checks:
            continue
        out = normalize(e.proof, 10**4)
        assert out.status == "value", e.name
        assert out.steps <= e.step_bound, (e.name, out.steps)


def test_total_trace_length_exceeds_five_hundred():
    total = 0
    for e in standard_entries():
        out = normalize(e.proof, 10**4)
        total += out.steps
    assert total >= 500, total


def test_diverging_entries_never_finish():
    for e in all_entries():
        if e.checks:
            continue
        out = normalize(e.proof, e.step_bound)
        assert out.status == "fuel"
        assert detect_cycle(e.proof, 100) == (0, e.period)


def test_erased_divergence_in_lockstep():
    l2 = next(e for e in nwf_suite() if e.name == "nwf_l2")
    rep = simulate_erasure(l2.proof, 300)
    assert rep.ok and rep.status == "fuel"
    assert detect_cycle(erase(l2.proof), 100) == (0, 3)


def test_nwf_statuses_match_declarations():
    statuses = {e.name: e.status for e in nwf_suite()}
    assert statuses == {
        "nwf_l0": "checks",
        "nwf_l05": "checks",
        "nwf_l1": "checks",
        "nwf_l2": "diverges",
    }
