import hashlib

import pytest

from gens import enum_restricted
from izf.axioms import PairAx, phi_A
from izf.corpus import all_entries, nwf_suite
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
    Snd,
    is_value,
)
from izf.axioms import IndAx
from izf.reduction import (
    FuelExhausted,
    IsValue,
    Stepped,
    Stuck,
    StuckTerm,
    _hole_child,
    _redex_at_root,
    count_redexes,
    detect_cycle,
    normalize,
    normalize_value,
    simulate_erasure,
    step,
    step_erased,
    trace_states,
)
from izf.syntax import Bottom, Empty, Eq, MemI, Omega, PowerT, Var
from izf.typecheck import check, infer

x, y = PropVar("x"), PropVar("y")
B = Bottom()
IDB = LamP("x", B, x)


def test_step_fst_pair():
    got = step(Fst(PairP(x, y)))
    assert isinstance(got, Stepped) and got.term == x and got.rule == "fst"


def test_step_erased_free_hypothesis_is_stuck():
    got = step_erased(EFst(EPropVar("x")))
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
    v, steps = normalize_value(m, 10)
    assert steps == 1 and v == IDB


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


def test_simulate_erasure_value_at_zero():
    rep = simulate_erasure(IDB, 10)
    assert rep.ok and rep.steps == 0 and rep.status == "value"


def test_erased_cancel_single_step():
    m = AxProp(PairAx(), Empty(), (Empty(), Omega()), AxRep(PairAx(), Empty(), (Empty(), Omega()), x))
    te = step_erased(erase(m))
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
    assert [t.index for t in out.trace.tail] == list(range(3000 - 64, 3000))
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
