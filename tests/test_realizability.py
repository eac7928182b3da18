import gc
import sys
import weakref

import pytest

from izf import lemmas
from izf import realizability as rz
from izf.proof_ops import alpha_eq_proof, erase
from izf.proofs import EApp, EAxRep, EExIntro, EInd, EInl, EInr, ELamF, ELamP, EPairP, EPropVar
from izf.realizability import (
    EMPTY_NAME,
    FAILS,
    REALIZES,
    RealizCfg,
    UnsupportedFormulaError,
    Verdict,
    _Eval,
    default_cfg,
    default_realizer_pool,
    enumerate_names,
    identity_value,
    mem_wrap,
    name_of,
    reals,
    refl_value,
)
from izf.realizers import mk_eqRefl, mk_eqSymm, mk_eqTrans, mk_lei
from izf.reduction import normalize
from izf.syntax import And, Empty, Eq, Exists, Forall, Imp, Inac, Mem, MemI, NameRef, Omega, Sep, Var, alpha_eq, succ_term
from izf.typecheck import check
from izf.corpus import nwf_suite
from test_metatheory_random import grown_theorems

a, b, c = Var("a"), Var("b"), Var("c")
SMALL = default_cfg(depth=1, fuel=10**4, universe_size=10)


def _sing(label, member=EMPTY_NAME):
    return name_of(((label, member),))


def _atomic(m, rel, left, right, cfg=SMALL):
    """Whether m realizes the atomic formula rel(a, b) with a named left
    and b named right."""
    return reals(m, rel(a, b), {"a": left, "b": right}, cfg)


def test_mem_i_examples():
    v = identity_value()
    B = _sing(v)
    assert _atomic(v, MemI, EMPTY_NAME, B).realizes
    assert _atomic(v, MemI, EMPTY_NAME, EMPTY_NAME).fails


def test_mem_i_diverging_is_unknown():
    l2 = [e for e in nwf_suite() if e.name == "nwf_l2"][0]
    loop = erase(l2.proof)
    verdict = _atomic(loop, MemI, EMPTY_NAME, _sing(identity_value()), RealizCfg(fuel=500))
    assert verdict.unknown


def test_mem_fails_against_empty_name():
    v = mem_wrap(identity_value())
    assert _atomic(v, Mem, EMPTY_NAME, EMPTY_NAME).fails


def test_mem_through_wrap():
    v = identity_value()
    B = _sing(v)
    assert _atomic(mem_wrap(v), Mem, EMPTY_NAME, B).realizes


def test_eq_refl_small_names():
    for nm in enumerate_names(2, 12):
        assert _atomic(refl_value(), Eq, nm, nm).realizes, nm


def test_eq_distinct_singletons_fail():
    l, r = _sing(EInl(identity_value())), _sing(EInr(identity_value()))
    assert _atomic(refl_value(), Eq, l, r).fails


def test_eq_is_label_sensitive():
    # reflexivity maps each membership witness to itself, so it cannot
    # equate a name with a larger label set; a realizer that funnels every
    # witness through a label present on both sides can
    l = _sing(EInl(identity_value()))
    lr = name_of(((EInl(identity_value()), EMPTY_NAME), (EInr(identity_value()), EMPTY_NAME)))
    assert _atomic(refl_value(), Eq, l, lr).fails
    funnel = ELamP(
        "x",
        EAxRep("in", EExIntro(Var("d"), EPairP(EInl(identity_value()), refl_value()))),
    )
    hand = EAxRep("eq", ELamF("d", EPairP(funnel, funnel)))
    assert _atomic(hand, Eq, l, lr).realizes
    assert _atomic(hand, Eq, lr, l).realizes


def test_realizes_implies_normalizes():
    # every realizer that obtained Realizes is a normalizing term
    for m in (mk_eqRefl(), mk_eqSymm(), mk_lei()):
        out = normalize(m, 10**3)
        assert out.status == "value"
    out = normalize(mk_eqTrans(), 10**3)
    assert out.status == "value"


def test_realizer_head_shapes():
    assert isinstance(mk_eqRefl(), EInd)
    v = normalize(mk_eqSymm(), 10**3).result
    assert isinstance(v, ELamF)
    inner = normalize(mk_eqTrans(), 10**3).result
    assert isinstance(inner, ELamF)


def test_reduction_closure():
    # reals is invariant along reduction prefixes of the subject
    cfg = SMALL
    nm = _sing(identity_value())
    term = mk_eqRefl()
    states = [term]
    from izf.reduction import Stepped, step

    for _ in range(4):
        r = step(states[-1])
        if not isinstance(r, Stepped):
            break
        states.append(r.term)
    want = None
    for s in states:
        # instantiate to the universal's instance: s applied at a term
        from izf.proofs import EAppT
        from izf.syntax import Empty

        v = reals(EAppT(s, Empty()), Eq(a, a), {"a": nm}, cfg)
        if want is None:
            want = v.status
        assert v.status == want


def test_monotone_under_pool_growth():
    # enlarging the universe never flips Realizes to Fails on atomic and
    # positive-only formulas
    small = default_cfg(depth=1, fuel=10**4, universe_size=6)
    large = default_cfg(depth=1, fuel=10**4, universe_size=14)
    v = identity_value()
    B = _sing(v)
    from izf.syntax import MemI

    cases = [
        (mem_wrap(v), Mem(a, b), {"a": EMPTY_NAME, "b": B}),
        (v, MemI(a, b), {"a": EMPTY_NAME, "b": B}),
    ]
    for m, phi, rho in cases:
        if reals(m, phi, rho, small).realizes:
            assert not reals(m, phi, rho, large).fails


def test_reals_rejects_inaccessibles():
    with pytest.raises(UnsupportedFormulaError):
        reals(identity_value(), Mem(a, Inac(1)), {"a": EMPTY_NAME}, SMALL)


def test_truncated_mode_reports_unknown():
    cfg = RealizCfg(
        fuel=10**3,
        universe=enumerate_names(1, 6),
        realizers=default_realizer_pool(),
        truncated=True,
    )
    v = reals(mk_eqRefl(), Forall("a", Eq(a, a)), {}, cfg)
    assert v.unknown


def _omega_member(monkeypatch, label, member=EMPTY_NAME):
    """Whether label realizes member ini omega, with the subjects the omega
    clause ran on: a label omega's name lists is decided without the clause."""
    runs = []
    clause = _Eval._omega_clause
    monkeypatch.setattr(_Eval, "_omega_clause", lambda ev, v, n: runs.append(v) or clause(ev, v, n))
    return reals(label, MemI(a, Omega()), {"a": member}, SMALL), runs


def test_omega_prime_base_entry(monkeypatch):
    # a redex where omega's listed entry has refl: a label the name does not list
    label = EAxRep("inf", EInl(EApp(identity_value(), refl_value())))
    verdict, runs = _omega_member(monkeypatch, label)
    assert verdict.realizes and runs == [label]


def test_omega_prime_successor_entry(monkeypatch):
    one = _Eval(SMALL).meaning(succ_term(NameRef(EMPTY_NAME)), {})
    base_label = EAxRep("inf", EInl(refl_value()))
    payload = EPairP(mem_wrap(base_label), EApp(identity_value(), refl_value()))
    label = EAxRep("inf", EInr(EExIntro(Empty(), payload)))
    verdict, runs = _omega_member(monkeypatch, label, one)
    assert verdict.realizes and runs[0] == label


def test_omega_prime_wrong_head_fails(monkeypatch):
    verdict, runs = _omega_member(monkeypatch, identity_value())
    assert verdict.fails and runs == [identity_value()]


def test_omega_listed_entry_skips_the_clause(monkeypatch):
    verdict, runs = _omega_member(monkeypatch, EAxRep("inf", EInl(refl_value())))
    assert verdict.realizes and runs == []


def test_stock_realizers_erase_proofs_of_the_criterion_8_statements():
    # each stock realizer is the erasure of a lemma that checks against
    # exactly the statement criterion 8 runs it on
    stock = (
        (mk_eqRefl, lemmas.mk_eq_refl, lemmas.eq_refl_formula, Forall("a", Eq(a, a))),
        (mk_eqSymm, lemmas.mk_eq_symm, lemmas.eq_symm_formula, Forall("a", Forall("b", Imp(Eq(a, b), Eq(b, a))))),
        (
            mk_eqTrans,
            lemmas.mk_eq_trans,
            lemmas.eq_trans_formula,
            Forall("b", Forall("a", Forall("c", Imp(And(Eq(a, b), Eq(b, c)), Eq(a, c))))),
        ),
        (mk_lei, lemmas.mk_lei, lemmas.lei_formula, LEI),
    )
    for realizer, lemma, formula, stated in stock:
        proof = lemma()
        assert realizer() == erase(proof)
        check((), proof, formula())
        assert alpha_eq(formula(), stated)


def test_name_equality_alpha_on_labels():
    # names built from alpha-variants of the same label are the same name
    v1 = ELamF("u", ELamF("w", EInl(identity_value())))
    v2 = ELamF("s", ELamF("t", EInl(identity_value())))
    assert name_of(((v1, EMPTY_NAME),)) == name_of(((v2, EMPTY_NAME),))


def test_name_labels_keep_distinct_name_constants_apart():
    # two different names that both print <name:2:1>
    p, q = _sing(identity_value()), _sing(EInl(identity_value()))
    assert p != q and repr(p) == repr(q)
    ep = (EExIntro(NameRef(p), identity_value()), EMPTY_NAME)
    eq = (EExIntro(NameRef(q), identity_value()), EMPTY_NAME)
    both = name_of((ep, eq))
    assert len(both.entries) == 2 and len(both.labels()) == 2
    assert both == name_of((eq, ep))
    assert name_of((ep,)) != name_of((eq,))


def test_names_require_value_labels():
    from izf.proofs import EApp, EPropVar

    with pytest.raises(ValueError):
        name_of(((EApp(EPropVar("x"), EPropVar("x")), EMPTY_NAME),))


def test_conjunction_clause_decomposes():
    v = identity_value()
    B = _sing(v)
    pair = EPairP(mem_wrap(v), refl_value())
    phi = And(Mem(a, b), Eq(a, a))
    rho = {"a": EMPTY_NAME, "b": B}
    assert reals(pair, phi, rho, SMALL).realizes
    assert reals(EPairP(refl_value(), refl_value()), phi, rho, SMALL).fails
    assert reals(identity_value(), phi, rho, SMALL).fails


def test_disjunction_clause_selects_branch():
    v = identity_value()
    B = _sing(v)
    phi = __import__("izf.syntax", fromlist=["Or"]).Or(Mem(a, b), Eq(a, a))
    rho = {"a": EMPTY_NAME, "b": B}
    assert reals(EInl(mem_wrap(v)), phi, rho, SMALL).realizes
    assert reals(EInr(refl_value()), phi, rho, SMALL).realizes
    assert reals(EInl(refl_value()), phi, rho, SMALL).fails


def test_exists_clause_searches_universe():
    from izf.syntax import Empty, Exists
    from izf.proofs import EExIntro

    v = identity_value()
    B = _sing(v)
    # exists x. x in b, witnessed by the empty name
    phi = Exists("x", Mem(Var("x"), b))
    m = EExIntro(Empty(), mem_wrap(v))
    assert reals(m, phi, {"b": B}, SMALL).realizes
    assert reals(m, phi, {"b": EMPTY_NAME}, SMALL).fails


def test_numeral_proof_erasures_realize_membership():
    # the erased numeral proofs realize their own membership statements:
    # the omega name admits any label the inductive clauses accept
    from izf.corpus import numeral_theorems

    cfg = default_cfg(depth=1, fuel=10**4, universe_size=10)
    for e in numeral_theorems(4):
        v = reals(erase(e.proof), e.formula, {}, cfg)
        assert v.realizes, (e.name, v)


def test_omega_meaning_is_compositional():
    from izf.realizability import _Eval
    from izf.syntax import numeral

    ev = _Eval(SMALL)
    two_direct = ev.meaning(numeral(2), {})
    one = ev.meaning(numeral(1), {})
    two_stepped = ev.meaning(succ_term(NameRef(one)), {})
    assert two_direct == two_stepped


def test_reals_over_a_separation_term_gives_a_verdict():
    B = _sing(identity_value())
    sep = Sep("z", (), Eq(Var("z"), Var("z")), b, ())
    v = reals(mem_wrap(identity_value()), Mem(a, sep), {"a": EMPTY_NAME, "b": B}, SMALL)
    assert isinstance(v, Verdict)


def test_queried_terms_are_not_retained_once_the_configuration_is_dropped():
    cfg = default_cfg(depth=1, fuel=10**4, universe_size=10)
    m = ELamP("q", EPropVar("q"))
    ref = weakref.ref(m)
    assert reals(m, Imp(Eq(a, a), Eq(a, a)), {"a": EMPTY_NAME}, cfg).realizes
    assert alpha_eq_proof(m, identity_value())
    model = weakref.ref(vars(cfg)["_model"])
    del m, cfg
    gc.collect()
    assert ref() is None and model() is None


def test_a_configuration_builds_its_model_at_its_first_query_and_keeps_it():
    cfg = default_cfg(depth=1, universe_size=4)
    assert "_model" not in vars(cfg)
    symm = Forall("a", Forall("b", Imp(Eq(a, b), Eq(b, a))))
    assert reals(mk_eqSymm(), symm, {}, cfg).realizes
    model = vars(cfg)["_model"]
    assert model._norm and model._inst and model._labels and model._pools
    assert reals(mk_eqRefl(), Forall("a", Eq(a, a)), {}, cfg).realizes
    assert vars(cfg)["_model"] is model


def test_a_queried_configuration_equals_a_fresh_equal_one():
    cfg, fresh = default_cfg(depth=1, universe_size=4), default_cfg(depth=1, universe_size=4)
    assert reals(mk_eqRefl(), Forall("a", Eq(a, a)), {}, cfg).realizes
    assert "_model" in vars(cfg) and "_model" not in vars(fresh)
    assert cfg == fresh and hash(cfg) == hash(fresh) and repr(cfg) == repr(fresh)


def test_no_verdict_table_outlives_its_query(monkeypatch):
    """Verdicts, compiled nodes and the term meanings of a query with a
    separation (which read verdicts) are made afresh for each query and
    dropped after it, also by a query that raises partway (here at an
    unbound variable, after its hypothesis was judged)."""
    seen = []
    for rel in ("mem", "eq"):
        real = getattr(_Eval, rel)
        monkeypatch.setattr(_Eval, rel, lambda self, *xs, f=real: seen.append((self._rel, self._terms)) or f(self, *xs))
    cfg = default_cfg(depth=1, universe_size=4)
    rho = {"a": EMPTY_NAME, "b": _sing(identity_value())}
    sep = Sep("z", (), Eq(Var("z"), Var("z")), b, ())
    assert reals(mem_wrap(identity_value()), Mem(a, sep), rho, cfg) is FAILS
    model = vars(cfg)["_model"]
    assert (model._rel, model._compiled, model._meaning) == ({}, {}, {}) and model._terms is model._meaning
    assert seen[-1][0] and seen[-1][1] and model._rel is not seen[-1][0] and model._terms is not seen[-1][1]
    seen.clear()
    with pytest.raises(UnsupportedFormulaError, match="unbound variable c"):
        reals(identity_value(), Imp(Eq(a, a), Eq(a, c)), rho, cfg)
    assert seen and seen[0][0] and all(t is seen[0][0] for t, _ in seen)
    assert vars(cfg)["_model"] is model and model._rel is not seen[0][0]
    assert (model._rel, model._compiled) == ({}, {}) and model._terms is model._meaning


def test_alpha_variant_separation_bodies_share_a_meaning():
    ev = _Eval(SMALL)
    rho = {"a": EMPTY_NAME, "b": _sing(identity_value())}
    s1 = Sep("z", ("p",), Eq(Var("z"), Var("p")), b, (a,))
    s2 = Sep("y", ("q",), Eq(Var("y"), Var("q")), b, (a,))
    m1 = ev.meaning(s1, rho)
    assert len(m1.entries) == 1
    assert ev.meaning(s2, rho) is m1


def test_inaccessibles_are_rejected_once_per_query(monkeypatch):
    calls = []
    real = rz._scan
    monkeypatch.setattr(rz, "_scan", lambda phi: calls.append(phi) or real(phi))
    symm = Forall("a", Forall("b", Imp(Eq(a, b), Eq(b, a))))
    assert reals(mk_eqSymm(), symm, {}, SMALL).realizes
    assert calls == [symm]


def test_the_forall_clause_instantiates_its_realizer_once_per_evaluation(monkeypatch):
    """The instance does not depend on the environment, so each evaluation
    of the clause instantiates once, before its sweep of the universe."""
    calls = []
    real = _Eval.instantiate

    def counted(ev, lam, arg):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "quantifier":
            calls.append(caller)
        return real(ev, lam, arg)

    monkeypatch.setattr(_Eval, "instantiate", counted)
    symm = Forall("a", Forall("b", Imp(Eq(a, b), Eq(b, a))))
    assert reals(mk_eqSymm(), symm, {}, SMALL).realizes
    assert len(SMALL.universe) > 1 and len(calls) > 1
    assert len({id(frame) for frame in calls}) == len(calls)


LEI = Forall("a", Forall("b", Forall("c", Imp(And(Mem(a, c), Eq(a, b)), Mem(b, c)))))


def test_a_query_instantiates_and_labels_each_key_once(monkeypatch):
    cfg, lei = default_cfg(depth=1), mk_lei()
    subst, labels = [], []
    real_term, real_prop, real_label = rz.esubst_term, rz.esubst_prop, rz.label_key

    def term(body, var, t):
        subst.append((rz.canon_key(ELamF(var, body)), rz.canon_key(t)))
        return real_term(body, var, t)

    def prop(body, var, n):
        subst.append((rz.canon_key(ELamP(var, body)), rz.canon_key(n)))
        return real_prop(body, var, n)

    def label(key):
        labels.append(key)
        return real_label(key)

    monkeypatch.setattr(rz, "esubst_term", term)
    monkeypatch.setattr(rz, "esubst_prop", prop)
    monkeypatch.setattr(rz, "label_key", label)
    assert reals(lei, LEI, {}, cfg).realizes
    assert subst and labels
    assert len(set(subst)) == len(subst)
    assert len(set(labels)) == len(labels)


def test_reentering_a_running_relation_instance_is_unknown():
    ev = _Eval(SMALL)
    inner = []

    def compute():
        inner.append(ev._memo(("k",), lambda: REALIZES))
        return FAILS

    assert ev._memo(("k",), compute) is FAILS
    assert inner == [rz.unknown("self-referential relation instance")]
    assert ev._memo(("k",), lambda: REALIZES) is FAILS


def test_a_raising_computation_leaves_its_instance_unmarked():
    ev = _Eval(SMALL)
    with pytest.raises(ZeroDivisionError):
        ev._memo(("k",), lambda: 1 // 0)
    assert ev._memo(("k",), lambda: REALIZES) is REALIZES


def test_separately_built_equal_names_compare_and_hash_equal():
    p = _sing(ELamF("u", EInl(identity_value())))
    q = _sing(ELamF("s", EInl(ELamP("y", EPropVar("y")))))
    assert p is not q and p == q and hash(p) == hash(q)
    assert len({p, q}) == 1
    # equal members are listed once
    assert name_of(((identity_value(), p), (refl_value(), q))).members() == (p,)


def test_erasures_of_checked_theorems_realize():
    # soundness: the erasure of a proof of a theorem realizes it
    from izf.corpus import standard_entries

    cfg = default_cfg(depth=1)
    verdicts, unsupported = {}, []
    for e in standard_entries():
        try:
            verdicts[e.name] = reals(erase(e.proof), e.formula, {}, cfg).status
        except UnsupportedFormulaError:
            unsupported.append(e.name)
    assert unsupported == ["ax_inac1"]
    assert len(verdicts) == 31 and set(verdicts.values()) == {"realizes"}, verdicts


@pytest.mark.parametrize("seed", range(3))
def test_erasures_of_grown_theorems_realize(seed):
    # soundness on random compositions of the library: a checked proof's
    # erasure never fails its statement
    cfg = default_cfg(depth=1)
    for m, phi in grown_theorems(seed):
        try:
            verdict = reals(erase(m), phi, {}, cfg)
        except UnsupportedFormulaError:
            continue
        assert verdict.realizes, (phi, verdict)


def _omega_built_per_evaluator(ev: _Eval):
    """omega's name as each evaluator built it before it became a process
    constant: the base entry, then successor entries, through ev's clauses."""
    from izf.proofs import EExIntro
    from izf.syntax import Empty

    label, n = EAxRep("inf", EInl(refl_value())), ev._empty
    entries = [(label, ev._names[n])]
    for _ in range(rz.OMEGA_DEPTH - 1):
        n = ev.succ(n)
        label = EAxRep("inf", EInr(EExIntro(Empty(), EPairP(mem_wrap(label), refl_value()))))
        entries.append((label, ev._names[n]))
    return ev._names[ev.name(entries)]


def test_evaluators_intern_the_one_omega_name():
    first, second = _Eval(SMALL), _Eval(default_cfg(depth=1, universe_size=4))
    assert first._names[first.omega()] is second._names[second.omega()] is rz.omega_name()
    assert first.meaning(Omega(), {}) is rz.omega_name()


def test_omega_name_is_the_name_each_evaluator_built():
    for cfg in (SMALL, RealizCfg()):
        old = _omega_built_per_evaluator(_Eval(cfg))
        assert old.key == rz.omega_name().key and old == rz.omega_name()
        assert len(old.entries) == rz.OMEGA_DEPTH and old.rank() == rz.OMEGA_DEPTH + 1


def test_omega_name_is_built_once_across_queries(monkeypatch):
    from izf.corpus import numeral_theorems

    rz.omega_name.cache_clear()
    real, asked = rz.omega_name, []
    monkeypatch.setattr(rz, "omega_name", lambda: asked.append(1) or real())
    cfg = default_cfg(depth=1, fuel=10**4, universe_size=10)
    for e in numeral_theorems(3):
        assert reals(erase(e.proof), e.formula, {}, cfg).realizes
    info = real.cache_info()
    assert info.misses == 1 and len(asked) == 1, (info, asked)


# -- the order and laziness of the clause sweeps, pinned with a scripted ``mem``


def _scripted_mem(monkeypatch, script, calls):
    """Make ``_Eval.mem`` answer its n-th call with ``script[n]`` (the last
    entry repeats) and record each call's subject and names in ``calls``."""

    def mem(self, m, a, b):
        calls.append((m, a, b))
        return script[min(len(calls), len(script)) - 1]

    monkeypatch.setattr(_Eval, "mem", mem)


def _counted_eq(monkeypatch, calls):
    real = _Eval.eq
    monkeypatch.setattr(_Eval, "eq", lambda self, m, x, y: calls.append((m, x, y)) or real(self, m, x, y))


def test_a_universal_sweep_stops_at_its_first_failure(monkeypatch):
    calls = []
    _scripted_mem(monkeypatch, [REALIZES, rz.unknown("later"), FAILS, REALIZES], calls)
    phi = Forall("x", Mem(Var("x"), b))
    assert reals(ELamF("x", mem_wrap(identity_value())), phi, {"b": EMPTY_NAME}, SMALL) is FAILS
    assert len(calls) == 3
    # each call is the next universe name, in the universe's order
    assert [x for _, x, _ in calls] == sorted(x for _, x, _ in calls)


def test_an_existential_sweep_stops_at_its_first_realizer(monkeypatch):
    calls = []
    _scripted_mem(monkeypatch, [FAILS, rz.unknown("u"), REALIZES, FAILS], calls)
    phi = Exists("x", Mem(Var("x"), b))
    assert reals(EExIntro(Empty(), mem_wrap(identity_value())), phi, {"b": EMPTY_NAME}, SMALL) is REALIZES
    assert len(calls) == 3


def test_an_implication_skips_its_conclusion_when_the_hypothesis_fails(monkeypatch):
    mems, eqs = [], []
    _scripted_mem(monkeypatch, [FAILS], mems)
    _counted_eq(monkeypatch, eqs)
    phi = Imp(Mem(a, b), Eq(a, a))
    assert reals(identity_value(), phi, {"a": EMPTY_NAME, "b": EMPTY_NAME}, SMALL) is REALIZES
    # every hypothesis realizer of the pool was tried, no conclusion was
    assert len(mems) == len(SMALL.realizers) and eqs == []


def test_an_implication_stops_at_its_first_failing_conclusion(monkeypatch):
    mems, eqs = [], []
    _scripted_mem(monkeypatch, [FAILS, REALIZES], mems)
    _counted_eq(monkeypatch, eqs)
    # no realizer of the pool realizes b = a when a and b differ
    phi = Imp(Mem(a, b), Eq(b, a))
    rho = {"a": EMPTY_NAME, "b": _sing(identity_value())}
    assert reals(identity_value(), phi, rho, SMALL) is FAILS
    assert len(mems) == 2 and len(eqs) == 1


@pytest.mark.parametrize(
    "hyp, conclusion, want",
    [
        (rz.unknown("h"), REALIZES, REALIZES),
        (rz.unknown("h"), FAILS, rz.unknown("h")),
        (rz.unknown("h"), rz.unknown("c"), rz.unknown("h")),
        (rz.unknown(""), FAILS, rz.unknown("hypothesis unknown")),
        (REALIZES, rz.unknown("c"), rz.unknown("c")),
    ],
)
def test_an_implication_with_an_undecided_side(monkeypatch, hyp, conclusion, want):
    from izf.syntax import MemI

    mems = []
    _scripted_mem(monkeypatch, [hyp], mems)
    monkeypatch.setattr(_Eval, "mem_i", lambda self, m, x, y: conclusion)
    phi = Imp(Mem(a, b), MemI(a, b))
    assert reals(identity_value(), phi, {"a": EMPTY_NAME, "b": EMPTY_NAME}, SMALL) == want


def test_a_sweep_reports_the_first_unknown_it_meets(monkeypatch):
    calls = []
    script = [REALIZES, rz.unknown("first"), REALIZES, rz.unknown("second"), REALIZES]
    _scripted_mem(monkeypatch, script, calls)
    phi = Forall("x", Mem(Var("x"), b))
    got = reals(ELamF("x", mem_wrap(identity_value())), phi, {"b": EMPTY_NAME}, SMALL)
    assert got == rz.unknown("first")
    assert len(calls) == len(SMALL.universe)
    # a failure after an unknown still decides the sweep
    calls.clear()
    _scripted_mem(monkeypatch, [REALIZES, rz.unknown("first"), FAILS], calls)
    assert reals(ELamF("x", mem_wrap(identity_value())), phi, {"b": EMPTY_NAME}, SMALL) is FAILS


def test_a_truncated_sweep_that_survives_its_pool_is_unknown(monkeypatch):
    cfg = RealizCfg(universe=SMALL.universe, realizers=SMALL.realizers, truncated=True)
    _scripted_mem(monkeypatch, [REALIZES], [])
    m = ELamF("x", mem_wrap(identity_value()))
    got = reals(m, Forall("x", Mem(Var("x"), b)), {"b": EMPTY_NAME}, cfg)
    assert got == rz.unknown("universal position exhausted a truncated pool")
    _scripted_mem(monkeypatch, [FAILS], [])
    got = reals(EExIntro(Empty(), mem_wrap(identity_value())), Exists("x", Mem(Var("x"), b)), {"b": EMPTY_NAME}, cfg)
    assert got == rz.unknown("existential position exhausted a truncated pool")


def test_a_conjunction_evaluates_both_conjuncts(monkeypatch):
    mems, eqs = [], []
    _scripted_mem(monkeypatch, [FAILS], mems)
    _counted_eq(monkeypatch, eqs)
    pair = EPairP(mem_wrap(identity_value()), refl_value())
    got = reals(pair, And(Mem(a, b), Eq(a, a)), {"a": EMPTY_NAME, "b": EMPTY_NAME}, SMALL)
    assert got is FAILS
    assert len(mems) == 1 and len(eqs) == 1
