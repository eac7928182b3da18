"""Computational content of closed proofs.

Disjunct selection, witness extraction and numeral extraction read values
through the canonical-forms lemma, ``proofs.CANONICAL``: a sub-proof of a
formula of some class normalizes to one of the constructors the table gives
that class, which is then taken apart.  Each extractor infers the proof's
type, unless its caller passes the type it has already inferred as ``goal``.
Numeral extraction loops through the membership and infinity axiom shapes:
unpack the extensional membership, normalize the intensional component, read
the zero/successor disjunct and go on with the predecessor, at most
``depth_cap`` times.  Defining formulas eliminate every function symbol from
a closed term by introducing each compound argument with a fresh existential
and characterizing memberships by the matching axiom right-hand side.
"""

from __future__ import annotations

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
from .printer import print_formula
from .proofs import CANONICAL, Inl, Proof
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
    record,
    substitute,
)
from .typecheck import check, infer


class ExtractionError(Exception):
    pass


class ShapeError(ExtractionError):
    pass


class DepthExceeded(ExtractionError):
    pass


@record()
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


def _value(m: Proof, cls: type, cfg: ExtractionConfig) -> Proof:
    """m's value, which proves a formula of class ``cls``, so that the
    canonical-forms lemma makes it one of ``CANONICAL[cls]``."""
    out = normalize(m, cfg.fuel)
    if out.status == "fuel":
        raise FuelExhausted(out)
    if out.status == "stuck":
        raise ShapeError(f"stuck while normalizing: {out.stuck_reason}")
    if type(out.result) not in CANONICAL[cls]:
        raise ShapeError(f"a {cls.__name__} value is a {type(out.result).__name__}")
    return out.result


def _recheck(m: Proof, phi: Formula, cfg: ExtractionConfig) -> None:
    if cfg.paranoid:
        check((), m, phi)


def extract_dp(m: Proof, cfg: ExtractionConfig = ExtractionConfig(), goal: Formula | None = None) -> tuple[Side, Proof]:
    """Select the proven disjunct of a closed disjunction proof."""
    goal = infer((), m) if goal is None else goal
    if not isinstance(goal, Or):
        raise ShapeError(f"goal is not a disjunction: {print_formula(goal)}")
    v = _value(m, Or, cfg)
    side, phi = (Side.LEFT, goal.left) if isinstance(v, Inl) else (Side.RIGHT, goal.right)
    check((), v.body, phi)
    return side, v.body


def extract_witness(m: Proof, cfg: ExtractionConfig = ExtractionConfig(), goal: Formula | None = None) -> tuple[Term, Proof]:
    """Recover the witness term of a closed existential proof."""
    goal = infer((), m) if goal is None else goal
    if not isinstance(goal, Exists):
        raise ShapeError(f"goal is not existential: {print_formula(goal)}")
    v = _value(m, Exists, cfg)
    check((), v.body, substitute(goal.body, goal.binder, v.witness))
    return v.witness, v.body


def extract_numeral(m: Proof, cfg: ExtractionConfig = ExtractionConfig(), goal: Formula | None = None) -> int:
    """Read the natural number out of a closed proof of ``t in omega``: each
    round unpacks ``t in omega`` to the infinity disjunct of its intensional
    witness, which is zero or the successor of a number in omega."""
    goal = infer((), m) if goal is None else goal
    if not (isinstance(goal, Mem) and isinstance(goal.right, Omega)):
        raise ShapeError(f"goal is not a membership in omega: {print_formula(goal)}")
    for n in range(cfg.depth_cap):
        # t in omega is inRep of (exists c. c intensionally-in omega and t = c)
        v = _value(m, Mem, cfg)
        _recheck(v.arg, phi_A(v.ax, v.term, v.args), cfg)
        ex = _value(v.arg, Exists, cfg)
        conj = _value(ex.body, And, cfg)
        # its left component proves c intensionally-in omega, by infRep
        inf = _value(conj.left, MemI, cfg)
        _recheck(inf.arg, phi_A(InfAx(), inf.term, ()), cfg)
        disj = _value(inf.arg, Or, cfg)
        if isinstance(disj, Inl):
            return n
        succ = _value(disj.body, Exists, cfg)
        m = _value(succ.body, And, cfg).left
        _recheck(m, Mem(succ.witness, Omega()), cfg)
    raise DepthExceeded("numeral recursion depth cap hit")


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
