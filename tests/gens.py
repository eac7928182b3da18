"""Seeded random generators for terms, formulas and proofs.

The acceptance suite needs deterministic bulk generation (tens of
thousands of instances), which is cheaper with a plain seeded Random than
with hypothesis; the unit tests use hypothesis strategies built on the
same constructors.
"""

from __future__ import annotations

import random

from izf.axioms import EmptyAx, EqAx, InAx, IndAx, PairAx, PowerAx, SepAx, UnionAx
from izf.proofs import (
    App,
    AppT,
    AxProp,
    AxRep,
    Case,
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
    PropVar,
    Snd,
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
    Sep,
    UnionT,
    Var,
)

_VARS = ("a", "b", "c", "d", "e")
_PVARS = ("x", "y", "z")


def _with(names: tuple[str, ...], name: str) -> tuple[str, ...]:
    """names plus name, in order and without repeats: a set here would make
    the draws depend on PYTHONHASHSEED."""
    return names if name in names else (*names, name)


def rand_term(rng: random.Random, depth: int = 3, fvars: tuple[str, ...] = _VARS):
    if depth <= 0 or rng.random() < 0.35:
        return rng.choice(
            [Var(rng.choice(fvars)), Empty(), Omega(), Inac(rng.randint(1, 2))]
        )
    kind = rng.randrange(5)
    if kind == 0:
        return PairT(rand_term(rng, depth - 1, fvars), rand_term(rng, depth - 1, fvars))
    if kind == 1:
        return UnionT(rand_term(rng, depth - 1, fvars))
    if kind == 2:
        return PowerT(rand_term(rng, depth - 1, fvars))
    if kind == 3:
        z = rng.choice(_VARS)
        p = rng.choice([n for n in _VARS if n != z])
        body = rand_formula(rng, 1, (z, p))
        return Sep(z, (p,), body, rand_term(rng, depth - 1, fvars), (rand_term(rng, depth - 1, fvars),))
    return UnionT(PairT(rand_term(rng, depth - 1, fvars), rand_term(rng, depth - 1, fvars)))


def rand_formula(rng: random.Random, depth: int = 3, fvars: tuple[str, ...] = _VARS):
    if depth <= 0 or rng.random() < 0.3:
        kind = rng.randrange(4)
        if kind == 0:
            return Bottom()
        rel = (MemI, Mem, Eq)[kind - 1]
        return rel(rand_term(rng, 1, fvars), rand_term(rng, 1, fvars))
    kind = rng.randrange(5)
    if kind < 3:
        cls = (And, Or, Imp)[kind]
        return cls(rand_formula(rng, depth - 1, fvars), rand_formula(rng, depth - 1, fvars))
    binder = rng.choice(_VARS)
    cls = Forall if kind == 3 else Exists
    return cls(binder, rand_formula(rng, depth - 1, _with(fvars, binder)))


def rand_proof(rng: random.Random, depth: int = 3, pvars: tuple[str, ...] = _PVARS):
    if depth <= 0 or rng.random() < 0.25:
        return PropVar(rng.choice(pvars))
    kind = rng.randrange(14)
    sub = lambda: rand_proof(rng, depth - 1, pvars)
    phi = lambda: rand_formula(rng, min(depth, 2))
    if kind == 0:
        x = rng.choice(_PVARS)
        return LamP(x, phi(), rand_proof(rng, depth - 1, _with(pvars, x)))
    if kind == 1:
        return LamF(rng.choice(_VARS), sub())
    if kind == 2:
        return App(sub(), sub())
    if kind == 3:
        return AppT(sub(), rand_term(rng, 2))
    if kind == 4:
        return PairP(sub(), sub())
    if kind == 5:
        return Fst(sub()) if rng.random() < 0.5 else Snd(sub())
    if kind == 6:
        ann = Or(phi(), phi())
        return Inl(sub(), ann) if rng.random() < 0.5 else Inr(sub(), ann)
    if kind == 7:
        x, y = rng.choice(_PVARS), rng.choice(_PVARS)
        return Case(sub(), x, phi(), rand_proof(rng, depth - 1, _with(pvars, x)), y, phi(),
                    rand_proof(rng, depth - 1, _with(pvars, y)))
    if kind == 8:
        a = rng.choice(_VARS)
        return ExIntro(rand_term(rng, 2), sub(), Exists(a, rand_formula(rng, 1, (a,))))
    if kind == 9:
        a, x = rng.choice(_VARS), rng.choice(_PVARS)
        return Let(a, x, rand_formula(rng, 1, (a,)), sub(), rand_proof(rng, depth - 1, _with(pvars, x)))
    if kind == 10:
        return Magic(sub(), phi())
    if kind == 11:
        a = rng.choice(_VARS)
        return Ind(IndAx(a, (), rand_formula(rng, 1, (a,))), sub(), ())
    ax = rng.choice(
        [
            (EmptyAx(), 0),
            (PairAx(), 2),
            (UnionAx(), 1),
            (PowerAx(), 1),
            (InAx(), 1),
            (EqAx(), 1),
            (SepAx("z", (), Eq(Var("z"), Var("z"))), 1),
        ]
    )
    axid, n = ax
    args = tuple(rand_term(rng, 1) for _ in range(n))
    cls = AxRep if kind == 12 else AxProp
    return cls(axid, rand_term(rng, 1), args, sub())
