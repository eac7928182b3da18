"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing defers to later tuning.
"""

import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

from gens import rand_formula, rand_proof, rand_term
from izf.axioms import EmptyAx
from izf.corpus import (
    all_entries,
    axiom_theorems,
    corpus_files,
    equality_theorems,
    numeral_theorems,
    nwf_suite,
    standard_entries,
)
from izf.extraction import ExtractionConfig, Side, extract_dp, extract_numeral, extract_witness
from izf.lemmas import build_numeral_proof, mk_eq_refl
from izf.parser import parse_formula, parse_proof, parse_term
from izf.printer import print_formula, print_proof, print_term
from izf.proof_ops import alpha_eq_proof, erase
from izf.proofs import (
    App,
    AppT,
    AxProp,
    AxRep,
    ExIntro,
    Fst,
    Inl,
    Inr,
    LamP,
    Magic,
    PairP,
    PropVar,
    Snd,
    is_value,
)
from izf.realizability import default_cfg, reals
from izf.realizers import mk_eqRefl, mk_eqSymm, mk_eqTrans, mk_lei
from izf.reduction import (
    IsValue,
    Stepped,
    Stuck,
    count_redexes,
    detect_cycle,
    normalize,
    simulate_erasure,
    step,
    trace_states,
)
from izf.syntax import (
    And,
    Bottom,
    Empty,
    Eq,
    Exists,
    Forall,
    Imp,
    Mem,
    Or,
    Var,
    alpha_eq,
    free_vars,
    substitute,
)
from izf.typecheck import TypeCheckError, check, checks, infer

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _report(n: int, text: str) -> None:
    print(f"\n[criterion {n:2d}] PASS: {text}")


def test_criterion_01_corpus_check():
    t0 = time.monotonic()
    groups = (axiom_theorems(), equality_theorems(), numeral_theorems())
    assert tuple(len(g) for g in groups) == (11, 5, 6)
    for group in groups:
        for e in group:
            check((), e.proof, e.formula, nwf=e.nwf)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    r = subprocess.run(
        [sys.executable, "-m", "izf.cli", "check", *sorted(str(p) for p in (ROOT / "corpus").glob("*.izf"))],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
    )
    assert r.returncode == 0, r.stdout + r.stderr
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"corpus check took {elapsed:.1f}s"
    _report(1, f"11 axiom + 5 equality + 6 numeral theorems check; izf check exit 0 in {elapsed:.1f}s")


def test_criterion_02_subject_reduction():
    total = 0
    for e in all_entries():
        if not e.checks:
            continue
        states = trace_states(e.proof, 10**4)
        total += len(states) - 1
        for s in states:
            check((), s, e.formula, nwf=e.nwf)
    assert total >= 500, f"only {total} steps across corpus traces"
    _report(2, f"re-checking succeeded at 100% of {total} corpus trace steps (>= 500)")


def _enum_restricted(size: int, k: int):
    B, D, IB = Bottom(), Or(Bottom(), Bottom()), Imp(Bottom(), Bottom())
    out = []
    if size == 1:
        return [PropVar(f"x{i}") for i in range(k)]
    n = size - 1
    for dom in (B, IB):
        for b in _enum_restricted(n, k + 1):
            out.append(LamP(f"x{k}", dom, b))
    for b in _enum_restricted(n, k):
        out.append(Magic(b, B))
        out.append(Fst(b))
        out.append(Snd(b))
        out.append(Inl(b, D))
        out.append(AxRep(EmptyAx(), Empty(), (), b))
        out.append(AxProp(EmptyAx(), Empty(), (), b))
    for i in range(1, n):
        for f in _enum_restricted(i, k):
            for a in _enum_restricted(n - i, k):
                out.append(App(f, a))
                out.append(PairP(f, a))
    return out


def test_criterion_03_progress_and_determinism():
    # restricted signature: hypotheses over bot and bot->bot, both lambda
    # domains, magic, projections, pairs, left injection, empty-set axiom
    # introduction/elimination, application
    n_all = n_typed_nonvalue = n_stuck = 0
    for size in range(1, 8):
        for m in _enum_restricted(size, 0):
            n_all += 1
            try:
                infer((), m)
                typed = True
            except TypeCheckError:
                typed = False
            r = step(m)
            if typed and not is_value(m):
                n_typed_nonvalue += 1
                assert isinstance(r, Stepped), m
                assert count_redexes(m) == 1, m
            if typed and is_value(m):
                assert isinstance(r, IsValue)
                assert count_redexes(m) == 0
                assert not isinstance(infer((), m), Bottom)
            if isinstance(r, Stuck):
                n_stuck += 1
                assert not typed, m
    assert n_all > 500_000 and n_typed_nonvalue >= 100
    _report(
        3,
        f"{n_all} closed terms of size <= 7: {n_typed_nonvalue} well-typed non-values "
        f"all step with exactly one rule; all {n_stuck} stuck terms are ill-typed",
    )


def test_criterion_04_normalization_bound():
    worst = 0
    for e in all_entries():
        if not e.checks:
            continue
        out = normalize(e.proof, 10**4)
        assert out.status == "value", e.name
        assert out.steps <= e.step_bound <= 10**4, (e.name, out.steps, e.step_bound)
        worst = max(worst, out.steps)
    _report(4, f"every Checks entry reaches a value within its declared bound (max {worst} <= 10^4 steps)")


def test_criterion_05_nwf_divergence():
    l2 = next(e for e in nwf_suite() if e.name == "nwf_l2")
    out = normalize(l2.proof, 10**5)
    assert out.status == "fuel" and out.steps == 10**5
    assert detect_cycle(l2.proof, 100) == (0, 3)
    assert detect_cycle(erase(l2.proof), 100) == (0, 3)
    _report(5, "the self-application replay makes 10^5 steps without a value; cycle (0, 3) found within 100 steps")


def test_criterion_06_erasure_simulation():
    steps = 0
    for e in all_entries():
        budget = 10**4 if e.checks else 500
        rep = simulate_erasure(e.proof, budget)
        assert rep.ok, (e.name, rep)
        if e.checks:
            assert rep.status == "value"
        steps += rep.steps
    _report(6, f"erasure commutes with reduction at every index of every corpus trace ({steps} lockstep steps)")


def test_criterion_07_extraction_round_trip():
    cfg = ExtractionConfig(fuel=10**4)
    for n in range(6):
        assert extract_numeral(build_numeral_proof(n), cfg) == n
    # dp outputs recheck at the selected disjunct
    B = Bottom()
    idb = LamP("x", B, PropVar("x"))
    d = Or(Imp(B, B), B)
    side, sub = extract_dp(Inl(idb, d), cfg)
    assert side is Side.LEFT
    check((), sub, Imp(B, B))
    from izf.proofs import Case

    swapped = Or(B, Imp(B, B))
    m = Case(Inl(idb, d), "x", Imp(B, B), Inr(PropVar("x"), swapped), "x", B, Inl(PropVar("x"), swapped))
    side, sub = extract_dp(m, cfg)
    assert side is Side.RIGHT
    check((), sub, Imp(B, B))
    # witness outputs recheck at the instantiated body
    er = mk_eq_refl()
    ann = Exists("a", Eq(Var("a"), Var("a")))
    t, sub = extract_witness(ExIntro(Empty(), AppT(er, Empty()), ann), cfg)
    assert t == Empty()
    check((), sub, Eq(Empty(), Empty()))
    _report(7, "extract_numeral(build_numeral_proof(n)) == n for n in 0..5; dp and witness outputs recheck")


def test_criterion_08_realizability_smoke():
    t0 = time.monotonic()
    a, b, c = Var("a"), Var("b"), Var("c")
    cfg2 = default_cfg(depth=2, fuel=10**4, universe_size=24)
    assert len(cfg2.universe) >= 20
    assert len(cfg2.realizers) == 8
    assert not cfg2.truncated  # pools treated as exhaustive: decisive verdicts

    v = reals(mk_eqRefl(), Forall("a", Eq(a, a)), {}, cfg2)
    assert v.realizes, v
    v = reals(mk_eqSymm(), Forall("a", Forall("b", Imp(Eq(a, b), Eq(b, a)))), {}, cfg2)
    assert v.realizes, v
    lei_phi = Forall("a", Forall("b", Forall("c", Imp(And(Mem(a, c), Eq(a, b)), Mem(b, c)))))
    v = reals(mk_lei(), lei_phi, {}, cfg2)
    assert v.realizes, v
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"depth-2 smoke took {elapsed:.1f}s"

    cfg1 = default_cfg(depth=1, fuel=10**4, universe_size=16)
    trans_phi = Forall("b", Forall("a", Forall("c", Imp(And(Eq(a, b), Eq(b, c)), Eq(a, c)))))
    v = reals(mk_eqTrans(), trans_phi, {}, cfg1)
    assert v.realizes, v
    _report(
        8,
        f"eqRefl/eqSymm/lei Realize on {len(cfg2.universe)} depth-<=2 names (pool 8, fuel 10^4) "
        f"in {elapsed:.1f}s; eqTrans Realizes on the depth-<=1 universe",
    )


def test_criterion_09_substitution_commutation_bulk():
    rng = random.Random(0xC0FFEE)
    n = 10_000
    for _ in range(n):
        phi = rand_formula(rng, 3)
        t = rand_term(rng, 2)
        u = rand_term(rng, 2)
        if "b" in free_vars(t):
            t = substitute(t, "b", Empty())
        lhs = substitute(substitute(phi, "a", t), "b", substitute(u, "a", t))
        rhs = substitute(substitute(phi, "b", u), "a", t)
        assert alpha_eq(lhs, rhs)
    _report(9, f"substitution commutation held on all {n} generated (phi, t, u, a, b) instances")


def test_criterion_10_round_trip_parsing():
    rng = random.Random(0xBEEF)
    n = 10_000
    for i in range(n):
        kind = i % 3
        if kind == 0:
            t = rand_term(rng, 3)
            assert alpha_eq(parse_term(print_term(t)), t)
        elif kind == 1:
            f = rand_formula(rng, 3)
            assert alpha_eq(parse_formula(print_formula(f)), f)
        else:
            m = rand_proof(rng, 3)
            assert alpha_eq_proof(parse_proof(print_proof(m)), m)
    from izf.parser import parse

    for name, (mode, entries, directives) in corpus_files().items():
        text = (ROOT / "corpus" / name).read_text(encoding="utf-8")
        tf = parse(text)
        for decl, entry in zip(tf.declarations, entries):
            assert alpha_eq(decl.formula, entry.formula)
            assert alpha_eq_proof(decl.proof, entry.proof)
    _report(10, f"parse-print identity up to alpha on {n} generated trees and all corpus files")


_CRITERION_10_TREES = """
import hashlib, random
from gens import rand_formula, rand_proof, rand_term
rng = random.Random(0xBEEF)
h = hashlib.sha256()
for i in range(10_000):
    h.update(repr((rand_term, rand_formula, rand_proof)[i % 3](rng, 3)).encode())
print(h.hexdigest())
"""


def test_criterion_10_trees_do_not_depend_on_the_hash_seed():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH", "")))
    digests = set()
    for seed in ("0", "1"):
        r = subprocess.run(
            [sys.executable, "-c", _CRITERION_10_TREES],
            capture_output=True,
            text=True,
            env={**env, "PYTHONHASHSEED": seed},
        )
        assert r.returncode == 0, r.stderr
        digests.add(r.stdout)
    assert len(digests) == 1
