"""Randomized metatheory checks on synthesized well-typed proofs.

Corpus entries are combined by type-directed random composition into fresh
closed well-typed terms; every term is then driven to a value, re-checking
the type at each state and confirming exactly one rule applies, and its
value is one the canonical-forms lemma (``proofs.CANONICAL``) allows.
"""

import random

import pytest

from izf.corpus import standard_entries
from izf.proof_ops import erase
from izf.proofs import CANONICAL, TWINS, App, AppT, Fst, Inl, Inr, PairP, Snd, is_value
from izf.reduction import IsValue, Stepped, count_redexes, simulate_erasure, step, trace_states
from izf.syntax import And, Empty, Forall, Imp, Omega, Or, PowerT, UnionT, numeral, substitute
from izf.typecheck import canonical_form, check

_TERMS = (Empty(), Omega(), PowerT(Empty()), UnionT(Omega()), numeral(2))


def _grow(rng: random.Random, pool):
    """One type-directed composition step over (proof, formula) pairs."""
    m, phi = rng.choice(pool)
    roll = rng.randrange(6)
    if roll == 0 and isinstance(phi, Forall):
        t = rng.choice(_TERMS)
        return AppT(m, t), substitute(phi.body, phi.binder, t)
    if roll == 1 and isinstance(phi, Imp):
        for n, psi in rng.sample(pool, len(pool)):
            from izf.syntax import alpha_eq

            if alpha_eq(psi, phi.left):
                return App(m, n), phi.right
        return None
    if roll == 2:
        n, psi = rng.choice(pool)
        return PairP(m, n), And(phi, psi)
    if roll == 3 and isinstance(phi, And):
        side = rng.random() < 0.5
        return (Fst(m), phi.left) if side else (Snd(m), phi.right)
    if roll == 4:
        n, psi = rng.choice(pool)
        side = rng.random() < 0.5
        return (Inl(m, Or(phi, psi)), Or(phi, psi)) if side else (Inr(m, Or(psi, phi)), Or(psi, phi))
    return None


def grown_theorems(seed: int, rounds: int = 25):
    """The checked (proof, formula) pairs that `rounds` growth steps from the
    standard library create under the given seed."""
    rng = random.Random(0xABCDE + seed)
    pool = [(e.proof, e.formula) for e in standard_entries()]
    created = []
    for _ in range(rounds):
        out = _grow(rng, pool)
        if out is None:
            continue
        m, phi = out
        check((), m, phi)
        pool.append((m, phi))
        created.append((m, phi))
    return created


@pytest.mark.parametrize("seed", range(30))
def test_random_well_typed_terms_respect_metatheory(seed):
    for m, phi in grown_theorems(seed):
        states = trace_states(m, 10**4)
        for s in states:
            check((), s, phi)  # subject reduction
            r = step(s)
            if is_value(s):
                assert isinstance(r, IsValue)
            else:
                assert isinstance(r, Stepped)  # progress
                assert count_redexes(s) == 1  # determinism
        v = states[-1]
        assert canonical_form(phi, v) is v  # canonical forms
        assert type(erase(v)) in {TWINS[c] for c in CANONICAL[type(phi)]}
        rep = simulate_erasure(m, 10**4)
        assert rep.ok and rep.status == "value"
