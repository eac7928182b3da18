import hashlib

import pytest

from gens import enum_restricted
from izf.axioms import PairAx
from izf.corpus import _burn_beta, _burn_cancel, _burn_case, _burn_let, _burn_proj, all_entries, nwf_suite
from izf.lemmas import mk_eq_refl
from izf.proof_ops import alpha_eq_proof, erase
from izf.proofs import (
    App,
    AppT,
    AxProp,
    AxRep,
    EApp,
    EAppT,
    EFst,
    EInd,
    ELamF,
    ELamP,
    EPairP,
    EPropVar,
    Fst,
    Ind,
    Inl,
    LamF,
    LamP,
    PairP,
    PropVar,
    is_value,
)
from izf import reduction
from izf.axioms import IndAx
from izf.reduction import (
    FuelExhausted,
    IsValue,
    Stepped,
    Stuck,
    _hole_child,
    _redex_at_root,
    count_redexes,
    detect_cycle,
    normalize,
    simulate_erasure,
    step,
    trace_states,
)
from izf.syntax import Bottom, Empty, Eq, MemI, Omega, PowerT, Var
from izf.typecheck import check

x, y = PropVar("x"), PropVar("y")
B = Bottom()
IDB = LamP("x", B, x)


def test_step_fst_pair():
    got = step(Fst(PairP(x, y)))
    assert isinstance(got, Stepped) and got.term == x and got.rule == "fst"


def test_step_erased_free_hypothesis_is_stuck():
    got = step(EFst(EPropVar("x")))
    assert isinstance(got, Stuck) and got.path == ("arg",)


def test_step_ax_cancel():
    args = (Empty(), Omega())
    m = AxProp(PairAx(), Empty(), args, AxRep(PairAx(), Empty(), args, x))
    got = step(m)
    assert isinstance(got, Stepped) and got.term == x and got.rule == "ax-cancel"


def test_step_ax_cancel_mismatch_sticks():
    m = AxProp(PairAx(), Empty(), (Empty(), Omega()), AxRep(PairAx(), Omega(), (Empty(), Omega()), x))
    got = step(m)
    assert isinstance(got, Stuck)


def test_step_ind_unfold():
    schema = IndAx("a", (), Eq(Var("a"), Var("a")))
    m = Ind(schema, x, ())
    got = step(m)
    assert isinstance(got, Stepped) and got.rule == "ind-unfold"
    v = got.term
    # lam c. x c (lam b. lam x1 : b ini c. ind(x) b)
    assert isinstance(v, LamF)
    body = v.body
    assert isinstance(body, App) and isinstance(body.fn, AppT)
    k = body.arg
    assert isinstance(k, LamF) and isinstance(k.body, LamP)
    assert isinstance(k.body.dom, MemI)
    inner = k.body.body
    assert isinstance(inner, AppT) and isinstance(inner.fn, Ind)


def test_normalize_value_immediately():
    out = normalize(Inl(x, B))
    assert out.status == "value" and out.steps == 0


def test_normalize_single_beta():
    m = App(LamP("x", Bottom(), x), IDB)
    out = normalize(m, 10)
    assert out.status == "value" and out.steps == 1 and out.result == IDB


def test_normalize_fuel_zero():
    m = App(IDB, x)
    out = normalize(m, 0)
    assert out.status == "fuel" and out.steps == 0


def test_stuck_reports_path():
    m = Fst(App(Fst(IDB), x))
    out = normalize(m, 10)
    assert out.status == "stuck"
    assert out.stuck_path == ("arg", "fn")


def test_detect_cycle_on_value():
    assert detect_cycle(IDB, 100) is None


def test_detect_cycle_takes_no_step_past_its_fuel(monkeypatch):
    calls = []
    real = reduction.subst_proof
    monkeypatch.setattr(reduction, "subst_proof", lambda *args: calls.append(args) or real(*args))
    beta = App(LamP("x", Bottom(), PropVar("x")), LamP("y", Bottom(), PropVar("y")))
    assert detect_cycle(beta, 0) is None
    assert calls == []
    assert detect_cycle(beta, 1) is None
    assert len(calls) == 1


def test_normalize_takes_no_step_past_its_fuel(monkeypatch):
    """A run out of fuel performs no further rule: here ind-unfold, whose
    unfolding is one call, and then every rule, through ``_CONTRACT``."""
    unfolds, fired = [], []
    real = reduction._ind_unfold
    monkeypatch.setattr(reduction, "_ind_unfold", lambda m: unfolds.append(m) or real(m))
    w = ELamF("c", ELamP("x", EAppT(EPropVar("x"), Var("c"))))
    m = EAppT(EInd(w), Empty())
    assert (normalize(m, 0).status, unfolds) == ("fuel", [])
    assert (normalize(m, 1).status, len(unfolds)) == ("fuel", 1)
    for rule, contract in reduction._CONTRACT.items():
        monkeypatch.setitem(reduction._CONTRACT, rule, lambda *a, rule=rule, f=contract: fired.append(rule) or f(*a))
    assert (normalize(m, 0).steps, fired) == (0, [])
    assert (normalize(m, 1).steps, fired) == (1, ["ind-unfold"])
    assert (normalize(m, 2).steps, fired[1:]) == (2, ["ind-unfold", "beta-fo"])


def test_detect_cycle_omega_loop():
    w = ELamP("x", EApp(EPropVar("x"), EPropVar("x")))
    assert detect_cycle(EApp(w, w), 50) == (0, 1)


def test_detect_cycle_nwf_period_three():
    l2 = [e for e in nwf_suite() if e.name == "nwf_l2"][0]
    assert detect_cycle(l2.proof, 100) == (0, 3)
    assert detect_cycle(erase(l2.proof), 100) == (0, 3)


def test_detect_cycle_expanding_diverger_none():
    # ind-driven: the recursion is re-applied at an ever larger term
    w = ELamF("c", ELamP("x", EApp(EAppT(EPropVar("x"), PowerT(Var("c"))), EPropVar("x"))))
    t = EAppT(EInd(w), Empty())
    assert detect_cycle(t, 300) is None
    out = normalize(t, 300)
    assert out.status == "fuel"
    # triple self application grows as well
    m = ELamP("x", EApp(EApp(EPropVar("x"), EPropVar("x")), EPropVar("x")))
    assert detect_cycle(EApp(m, m), 200) is None


def test_trace_states_consecutive():
    er = mk_eq_refl()
    states = trace_states(AppT(er, Empty()), 100)
    assert len(states) >= 2
    for s, t in zip(states, states[1:]):
        got = step(s)
        assert isinstance(got, Stepped) and alpha_eq_proof(got.term, t)
    assert is_value(states[-1])


def test_simulate_erasure_on_corpus():
    for e in all_entries():
        rep = simulate_erasure(e.proof, 2000)
        assert rep.ok, (e.name, rep)
        if e.checks:
            assert rep.status == "value"


def test_simulate_erasure_takes_no_step_past_its_fuel(monkeypatch):
    """Each machine performs at most ``fuel`` rules, counted through
    ``_CONTRACT``; a run that is done after them is still seen to be done."""
    fired = []
    for rule, contract in reduction._CONTRACT.items():
        monkeypatch.setitem(reduction._CONTRACT, rule, lambda *a, rule=rule, f=contract: fired.append(rule) or f(*a))
    m = App(IDB, LamP("y", B, y))
    rep = simulate_erasure(m, 0)
    assert (rep.ok, rep.steps, rep.status, fired) == (True, 0, "fuel", [])
    rep = simulate_erasure(m, 1)
    assert (rep.ok, rep.steps, rep.status, fired) == (True, 1, "value", ["beta", "beta"])
    fired.clear()
    rep = simulate_erasure(App(IDB, App(IDB, IDB)), 1)
    assert (rep.ok, rep.steps, rep.status, fired) == (True, 1, "fuel", ["beta", "beta"])


def test_trace_states_reaches_a_value_in_exactly_its_fuel():
    m = App(IDB, LamP("y", B, y))
    assert normalize(m, 1).status == "value"
    states = trace_states(m, 1)
    assert len(states) == 2 and states[0] is m and alpha_eq_proof(states[1], LamP("y", B, y))
    with pytest.raises(FuelExhausted) as raised:
        trace_states(m, 0)
    assert raised.value.outcome.steps == 0


def test_simulate_erasure_value_at_zero():
    rep = simulate_erasure(IDB, 10)
    assert rep.ok and rep.steps == 0 and rep.status == "value"


def test_erased_cancel_single_step():
    m = AxProp(PairAx(), Empty(), (Empty(), Omega()), AxRep(PairAx(), Empty(), (Empty(), Omega()), x))
    te = step(erase(m))
    assert isinstance(te, Stepped) and te.rule == "ax-cancel"


def test_subject_reduction_along_corpus_traces():
    for e in all_entries():
        if not e.checks:
            continue
        phi = e.formula
        for s in trace_states(e.proof, 10**4):
            check((), s, phi, nwf=e.nwf)


def test_progress_on_corpus_traces():
    for e in all_entries():
        if not e.checks:
            continue
        for s in trace_states(e.proof, 10**4):
            r = step(s)
            assert isinstance(r, (Stepped, IsValue))
            if isinstance(r, Stepped):
                assert count_redexes(s) == 1
            else:
                assert count_redexes(s) == 0


def test_normalize_within_declared_bounds():
    for e in all_entries():
        if not e.checks:
            continue
        out = normalize(e.proof, 10**4)
        assert out.status == "value"
        assert out.steps <= e.step_bound, (e.name, out.steps, e.step_bound)


def _fst_spine(depth: int):
    """fst applied depth times to pairs nested depth deep on the left."""
    v = ELamP("z", EPropVar("z"))
    m = v
    for _ in range(depth):
        m = EPairP(m, v)
    for _ in range(depth):
        m = EFst(m)
    return m, v


def test_deep_fst_spine_steps_without_native_recursion():
    m, v = _fst_spine(3000)
    out = normalize(m, 10**4)
    assert out.status == "value" and out.steps == 3000 and out.result is v
    deep, _ = _fst_spine(10**4)
    assert count_redexes(deep) == 1
    got = step(deep)
    assert isinstance(got, Stepped) and got.rule == "fst" and got.path == ("arg",) * (10**4 - 1)


def _run_against_oracle(m, fuel: int, h) -> None:
    """Normalize m, checking every step against the root/hole oracle and
    hashing (index, rule, path, repr(state)) and the outcome into h (the
    final state only if it was reached by a step).

    The step's path must lead through the same nodes as the _hole_child
    walk from the root to the first node where _redex_at_root holds, and
    that node must be the only redex the oracle counts.
    """
    before = [m]

    def on_step(i, rule, path, state):
        prev = before[0]
        along = [prev]
        for attr in path:
            along.append(getattr(along[-1], attr))
        walk = [prev]
        while not _redex_at_root(walk[-1]):
            walk.append(_hole_child(walk[-1]))
        assert len(walk) == len(along) and all(a is b for a, b in zip(walk, along)), (i, path)
        assert count_redexes(prev) == 1
        h.update(repr((i, rule, path, repr(state))).encode())
        before[0] = state

    out = normalize(m, fuel, on_step=on_step)
    if out.status != "fuel":
        assert count_redexes(out.result) == 0
    assert out.steps or out.result == m
    final = repr(out.result) if out.steps else ""
    h.update(repr((out.status, out.steps, out.stuck_path, out.stuck_reason, final)).encode())


# Taken with the machine that re-descended from the root at every step.
_CORPUS_LOCKSTEP_SHA256 = "c493b36d3f55957ccb02731d6d855eb94249f9d9e4a7f37dd2a28f0505274d8d"
_ENUM_LOCKSTEP_SHA256 = "23cb1bebf1fb099261ea053c0d39b2b6b30872c2ba43cbf88673b16718bb43a5"


def test_machine_steps_at_the_oracle_redex_on_the_corpus():
    h = hashlib.sha256()
    for e in all_entries():
        for m in (e.proof, erase(e.proof)):
            _run_against_oracle(m, 200, h)
    assert h.hexdigest() == _CORPUS_LOCKSTEP_SHA256


def test_machine_steps_at_the_oracle_redex_on_the_enumeration():
    h = hashlib.sha256()
    for size in range(1, 8):
        for m in enum_restricted(size, 0):
            _run_against_oracle(m, 200, h)
    assert h.hexdigest() == _ENUM_LOCKSTEP_SHA256


@pytest.mark.parametrize("calculus", ["annotated", "erased"])
def test_a_run_rebuilds_no_context_node(calculus, monkeypatch):
    """Parents are rebuilt only when a state is plugged: a long fuel run
    rebuilds at most the final state's context, once."""
    l2 = [e for e in nwf_suite() if e.name == "nwf_l2"][0].proof
    m = l2 if calculus == "annotated" else erase(l2)
    fills = []

    def counted(fill):
        return lambda p, c: fills.append(type(p)) or fill(p, c)

    monkeypatch.setattr(reduction, "_FILL", {cls: counted(fill) for cls, fill in reduction._FILL.items()})
    out = normalize(m, 3000)
    assert out.status == "fuel" and out.steps == 3000
    depth, node = 0, out.result
    while (node := _hole_child(node)) is not None:
        depth += 1
    assert len(fills) <= depth


def _observed_and_unobserved_agree(m) -> None:
    """A run with an observer ends where the same run without one does."""
    for fuel in (0, 1, 2, 7, 200):
        plain, seen = normalize(m, fuel), normalize(m, fuel, on_step=lambda *a: None)
        assert (plain.status, plain.steps, plain.stuck_path, plain.stuck_reason) == (
            seen.status,
            seen.steps,
            seen.stuck_path,
            seen.stuck_reason,
        ), (m, fuel)
        assert plain.result == seen.result, (m, fuel)


def test_an_observer_does_not_change_a_run():
    subjects = [e.proof for e in all_entries()]
    subjects += [burn(3).proof for burn in (_burn_beta, _burn_proj, _burn_case, _burn_cancel, _burn_let)]
    for m in subjects:
        _observed_and_unobserved_agree(m)
        _observed_and_unobserved_agree(erase(m))
    for size in range(1, 8):
        for m in enum_restricted(size, 0):
            _observed_and_unobserved_agree(m)


@pytest.mark.parametrize("on_step", [None, lambda *a: None])
def test_a_node_stuck_at_exactly_its_fuel_reports_stuck(on_step):
    m = App(LamP("x", B, Fst(PropVar("x"))), IDB)
    for s in (m, erase(m)):
        out = normalize(s, 1, on_step=on_step)
        assert (out.status, out.steps, out.stuck_reason) == ("stuck", 1, "fst of a non-pair value")
    args = (Empty(), Omega())
    mismatched = AxProp(PairAx(), Empty(), args, AxRep(PairAx(), Omega(), args, x))
    out = normalize(mismatched, 0, on_step=on_step)
    assert (out.status, out.steps, out.stuck_reason) == ("stuck", 0, "mismatched elimination/introduction pair")


@pytest.mark.parametrize("observer", [normalize, trace_states, simulate_erasure, detect_cycle])
def test_every_observer_rejects_negative_fuel(observer):
    with pytest.raises(ValueError, match="fuel must be non-negative"):
        observer(App(IDB, LamP("y", B, y)), -1)
