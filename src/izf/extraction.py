"""Computational content of closed proofs.

Disjunct selection and witness extraction normalize and take the canonical
form apart.  Numeral extraction stages canonical forms through the
membership and infinity axiom shapes: unpack the extensional membership,
normalize the intensional component, then read the zero/successor disjunct
and recurse.  Defining formulas eliminate every function symbol from a
closed term by introducing each compound argument with a fresh existential
and characterizing memberships by the matching axiom right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import syntax as sx
from .axioms import (
    AxiomId,
    InacAx,
    InfAx,
    PairAx,
    PowerAx,
    ReplAx,
    SepAx,
    UnionAx,
    phi_A,
)
from .proofs import AxRep, ExIntro, Inl, Inr, PairP, Proof
from .reduction import DEFAULT_FUEL, FuelExhausted, normalize
from .syntax import (
    And,
    Bottom,
    Empty,
    Eq,
    Exists,
    Forall,
    Formula,
    Imp,
    Inac,
    Mem,
    MemI,
    NwfConst,
    Omega,
    Or,
    PairT,
    PowerT,
    Repl,
    Sep,
    Term,
    UnionT,
    Var,
    bound_names,
    free_vars,
    fresh_name,
    map_children,
    substitute,
)
from .typecheck import check, infer


class ExtractionError(Exception):
    pass


class ShapeError(ExtractionError):
    pass


class DepthExceeded(ExtractionError):
    pass


@dataclass(frozen=True)
class ExtractionConfig:
    fuel: int = DEFAULT_FUEL
    depth_cap: int = 2**16
    paranoid: bool = False

    def __post_init__(self) -> None:
        if self.fuel <= 0 or self.depth_cap <= 0:
            raise ValueError("budgets must be positive")


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


def _normalize_value(m: Proof, cfg: ExtractionConfig) -> Proof:
    out = normalize(m, cfg.fuel)
    if out.status == "fuel":
        raise FuelExhausted(out)
    if out.status == "stuck":
        raise ShapeError(f"stuck while normalizing: {out.stuck_reason}")
    return out.result


def _recheck(m: Proof, phi: Formula, cfg: ExtractionConfig, what: str) -> None:
    if cfg.paranoid:
        check((), m, phi)


def extract_dp(m: Proof, cfg: ExtractionConfig = ExtractionConfig()) -> tuple[Side, Proof]:
    """Select the proven disjunct of a closed disjunction proof."""
    goal = infer((), m)
    if not isinstance(goal, Or):
        raise ShapeError(f"goal is not a disjunction: {goal!r}")
    v = _normalize_value(m, cfg)
    if isinstance(v, Inl):
        check((), v.body, goal.left)
        return Side.LEFT, v.body
    if isinstance(v, Inr):
        check((), v.body, goal.right)
        return Side.RIGHT, v.body
    raise ShapeError("disjunction value is not an injection")


def extract_witness(m: Proof, cfg: ExtractionConfig = ExtractionConfig()) -> tuple[Term, Proof]:
    """Recover the witness term of a closed existential proof."""
    goal = infer((), m)
    if not isinstance(goal, Exists):
        raise ShapeError(f"goal is not existential: {goal!r}")
    v = _normalize_value(m, cfg)
    if not isinstance(v, ExIntro):
        raise ShapeError("existential value is not a witness pair")
    at = substitute(goal.body, goal.binder, v.witness)
    check((), v.body, at)
    return v.witness, v.body


def extract_numeral(m: Proof, cfg: ExtractionConfig = ExtractionConfig()) -> int:
    """Read the natural number out of a closed proof of ``t in omega``."""
    goal = infer((), m)
    if not (isinstance(goal, Mem) and isinstance(goal.right, Omega)):
        raise ShapeError(f"goal is not a membership in omega: {goal!r}")
    return _extract_numeral(m, goal, cfg, cfg.depth_cap)


def _extract_numeral(m: Proof, goal: Mem, cfg: ExtractionConfig, depth: int) -> int:
    if depth <= 0:
        raise DepthExceeded("numeral recursion depth cap hit")
    t = goal.left
    # t in omega is inRep of (exists c. c intensionally-in omega and t = c)
    v = _normalize_value(m, cfg)
    if not isinstance(v, AxRep):
        raise ShapeError("membership value is not an introduction")
    _recheck(v.arg, phi_A(v.ax, v.term, v.args), cfg, "in-intro premise")
    ex = _normalize_value(v.arg, cfg)
    if not isinstance(ex, ExIntro):
        raise ShapeError("membership unpacks to a non-witness")
    conj = _normalize_value(ex.body, cfg)
    if not isinstance(conj, PairP):
        raise ShapeError("membership witness body is not a conjunction pair")
    # left component proves: witness intensionally-in omega, via infRep
    inf = _normalize_value(conj.left, cfg)
    if not (isinstance(inf, AxRep) and isinstance(inf.ax, InfAx)):
        raise ShapeError("intensional component is not an infinity introduction")
    _recheck(inf.arg, phi_A(InfAx(), inf.term, ()), cfg, "infinity premise")
    disj = _normalize_value(inf.arg, cfg)
    if isinstance(disj, Inl):
        return 0
    if not isinstance(disj, Inr):
        raise ShapeError("infinity disjunct is not an injection")
    succ_ex = _normalize_value(disj.body, cfg)
    if not isinstance(succ_ex, ExIntro):
        raise ShapeError("successor clause is not a witness pair")
    pair = _normalize_value(succ_ex.body, cfg)
    if not isinstance(pair, PairP):
        raise ShapeError("successor clause body is not a conjunction pair")
    sub_goal = Mem(succ_ex.witness, Omega())
    _recheck(pair.left, sub_goal, cfg, "predecessor membership")
    return 1 + _extract_numeral(pair.left, sub_goal, cfg, depth - 1)


# ---------------------------------------------------------------------------
# Term-free defining formulas (the set-existence direction)


class OpenTermError(ExtractionError):
    pass


class UnsupportedTermError(ExtractionError):
    pass


def defining_formula(t: Term, x: str) -> Formula:
    """A function-symbol-free formula with sole free variable x defining t."""
    if free_vars(t):
        raise OpenTermError(f"term is not closed: {sorted(free_vars(t))}")
    out = _term_char(t, Var(x))
    assert free_vars(out) <= {x}
    return out


def _term_char(t: Term, e: Term) -> Formula:
    """Characterize ``e = t`` without function symbols; t's free vars stay."""
    match t:
        case Var(a):
            return Eq(e, Var(a))
        case Empty():
            c = _fresh_for("c", (e, t))
            return Forall(c, Imp(Mem(Var(c), e), Bottom()))
        case Omega() | Inac():
            # self-referential: the membership condition of t, with e for t
            c = _fresh_for("c", (e, t))
            body = phi_A(InfAx() if t == Omega() else InacAx(t.index), Var(c), ())
            body = _replace_term(body, t, e)
            return Forall(c, sx.iff(Mem(Var(c), e), _formula_term_free(body)))
        case PairT(l, r):
            return _compound_char(PairAx(), (l, r), t, e)
        case UnionT(u):
            return _compound_char(UnionAx(), (u,), t, e)
        case PowerT(u):
            return _compound_char(PowerAx(), (u,), t, e)
        case Sep(z, ps, body, carrier, args):
            return _compound_char(SepAx(z, ps, body), (carrier, *args), t, e)
        case Repl(z, y, ps, body, carrier, args):
            return _compound_char(ReplAx(z, y, ps, body), (carrier, *args), t, e)
        case NwfConst():
            raise UnsupportedTermError("nwf constants have no defining formula")
    raise TypeError(f"not a term: {t!r}")


def _compound_char(ax: AxiomId, subterms: tuple[Term, ...], t: Term, e: Term) -> Formula:
    """exists e1..ek (each defining a subterm) with the membership shape."""
    avoid = free_vars(e) | free_vars(t)
    names: list[str] = []
    for _ in subterms:
        n = fresh_name("e", avoid)
        names.append(n)
        avoid = avoid | {n}
    c = fresh_name("c", avoid)
    shape = phi_A(ax, Var(c), tuple(Var(n) for n in names))
    out: Formula = Forall(c, sx.iff(Mem(Var(c), e), _formula_term_free(shape)))
    for n, sub in reversed(tuple(zip(names, subterms))):
        out = Exists(n, And(_term_char(sub, Var(n)), out))
    return out


def _formula_term_free(phi: Formula) -> Formula:
    """Unfold every compound term argument of an atom behind an existential."""
    match phi:
        case Bottom():
            return phi
        case Mem(l, r) | Eq(l, r):
            return _atom_term_free(type(phi), l, r)
        case MemI(l, r):
            if isinstance(l, Var) and isinstance(r, Var):
                return phi
            # Intensional membership is not respected by equality, so the
            # existential unfolding would be unsound here.
            raise UnsupportedTermError(
                "intensional membership over compound terms has no term-free form"
            )
        case And() | Or() | Imp() | Forall() | Exists():
            return map_children(phi, _formula_term_free)
    raise TypeError(f"not a formula: {phi!r}")


def _atom_term_free(rel: type, l: Term, r: Term) -> Formula:
    out_parts: list[tuple[str, Term]] = []
    avoid = free_vars(l) | free_vars(r)

    def arg(u: Term) -> Term:
        nonlocal avoid
        if isinstance(u, Var):
            return u
        n = fresh_name("w", avoid)
        avoid = avoid | {n}
        out_parts.append((n, u))
        return Var(n)

    core: Formula = rel(arg(l), arg(r))
    for n, u in reversed(out_parts):
        core = Exists(n, And(_term_char(u, Var(n)), core))
    return core


def _fresh_for(base: str, xs: tuple) -> str:
    avoid: frozenset[str] = frozenset()
    for x in xs:
        avoid |= free_vars(x)
    return fresh_name(base, avoid)


def _replace_term(phi: Formula, old: Term, new: Term) -> Formula:
    """Replace every occurrence of a closed constant term inside atoms,
    capture-avoiding: through a variable fresh for the whole formula."""
    v = Var(fresh_name("v", free_vars(phi) | bound_names(phi) | free_vars(new)))

    def rep(x: Term | Formula) -> Term | Formula:
        return v if x == old else map_children(x, rep)

    return substitute(rep(phi), v.name, new)
