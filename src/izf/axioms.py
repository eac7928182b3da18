"""The axiom-schema catalogue.

For each axiom (A) with a set-term form this module provides the term head
t_A(args) and the defining formula phi_A(c, args); for the membership and
equality axioms it provides their defining right-hand sides, and for the
induction schema the induction-hypothesis premise shape.  The two
non-well-founded axioms of the optional nwf mode reuse the same machinery
with the extensional membership relation as their head.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    FO_BINDER,
    FO_BINDERS,
    FORMULA,
    LITERAL,
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
    Node,
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
    _shape,
    bound_names,
    declare,
    forall_many,
    free_vars,
    fresh_name,
    iff,
    kuratowski,
    substitute,
    substitute_many,
    succ_term,
    v_index,
)


class AxiomError(Exception):
    pass


class NoTermFormError(AxiomError):
    pass


class ArityError(AxiomError):
    pass


class AxiomId(Node):
    """Base class of axiom identifiers."""

    __slots__ = ()


@dataclass(frozen=True)
class EmptyAx(AxiomId):
    pass


@dataclass(frozen=True)
class PairAx(AxiomId):
    pass


@dataclass(frozen=True)
class InfAx(AxiomId):
    pass


@dataclass(frozen=True)
class UnionAx(AxiomId):
    pass


@dataclass(frozen=True)
class PowerAx(AxiomId):
    pass


@dataclass(frozen=True)
class SepAx(AxiomId):
    """Separation instance for the schema body phi(binder, params)."""

    binder: str
    params: tuple[str, ...]
    body: Formula


@dataclass(frozen=True)
class ReplAx(AxiomId):
    """Replacement instance for the schema body phi(binder1, binder2, params)."""

    binder1: str
    binder2: str
    params: tuple[str, ...]
    body: Formula


@dataclass(frozen=True)
class InacAx(AxiomId):
    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("inaccessible axiom index must be >= 1")


@dataclass(frozen=True)
class InAx(AxiomId):
    pass


@dataclass(frozen=True)
class EqAx(AxiomId):
    pass


@dataclass(frozen=True)
class IndAx(AxiomId):
    """Set-induction instance for the schema body phi(binder, params)."""

    binder: str
    params: tuple[str, ...]
    body: Formula


@dataclass(frozen=True)
class NwfAx(AxiomId):
    """a in C iff a "equals" C, with equality spelled out membershipwise."""

    pass


@dataclass(frozen=True)
class Sep0Ax(AxiomId):
    """The separation instance defining D in the nwf counterexample."""

    pass


# The schema-carrying identifiers bind their bodies like the set terms do;
# every other identifier is a constant tagged with its family name.
declare(
    {
        EmptyAx: _shape("empty"),
        PairAx: _shape("pair"),
        InfAx: _shape("inf"),
        UnionAx: _shape("union"),
        PowerAx: _shape("power"),
        SepAx: _shape(
            "sepax", binder=FO_BINDER, params=FO_BINDERS, body=(FORMULA, "binder", "params")
        ),
        ReplAx: _shape(
            "replax",
            binder1=FO_BINDER,
            binder2=FO_BINDER,
            params=FO_BINDERS,
            body=(FORMULA, "binder1", "binder2", "params"),
        ),
        InacAx: _shape("inac", index=LITERAL),
        InAx: _shape("in"),
        EqAx: _shape("eq"),
        IndAx: _shape(
            "indax", binder=FO_BINDER, params=FO_BINDERS, body=(FORMULA, "binder", "params")
        ),
        NwfAx: _shape("n"),
        Sep0Ax: _shape("s"),
    }
)


def arity(ax: AxiomId) -> int:
    """Number of argument terms the axiom's term/formula family expects."""
    match ax:
        case EmptyAx() | InfAx() | InacAx() | NwfAx() | Sep0Ax():
            return 0
        case PairAx():
            return 2
        case UnionAx() | PowerAx() | InAx() | EqAx():
            return 1
        case SepAx(_, params, _):
            return 1 + len(params)
        case ReplAx(_, _, params, _):
            return 1 + len(params)
        case IndAx(_, params, _):
            return len(params)
    raise TypeError(f"not an axiom id: {ax!r}")


def _check_arity(ax: AxiomId, args: tuple[Term, ...]) -> None:
    if len(args) != arity(ax):
        raise ArityError(f"{ax!r} expects {arity(ax)} argument(s), got {len(args)}")


def term_head(ax: AxiomId, args: tuple[Term, ...]) -> Term:
    """The set term t_A(args); In/Eq/Ind have no term form."""
    _check_arity(ax, args)
    match ax:
        case EmptyAx():
            return Empty()
        case PairAx():
            return PairT(args[0], args[1])
        case InfAx():
            return Omega()
        case UnionAx():
            return UnionT(args[0])
        case PowerAx():
            return PowerT(args[0])
        case SepAx(z, ps, body):
            return Sep(z, ps, body, args[0], args[1:])
        case ReplAx(z, y, ps, body):
            return Repl(z, y, ps, body, args[0], args[1:])
        case InacAx(i):
            return Inac(i)
        case NwfAx():
            return NwfConst("C")
        case Sep0Ax():
            return NwfConst("D")
        case InAx() | EqAx() | IndAx():
            raise NoTermFormError(f"{type(ax).__name__} has no term form")
    raise TypeError(f"not an axiom id: {ax!r}")


def head_formula(ax: AxiomId, t: Term, args: tuple[Term, ...]) -> Formula:
    """The conclusion an introduction proof term gets for this axiom.

    Set-term axioms conclude intensional membership in t_A(args); the (IN)
    and (EQ) axioms conclude the defined relations themselves; the nwf pair
    concludes extensional membership, matching the appendix theory whose
    only relation is extensional.
    """
    _check_arity(ax, args)
    match ax:
        case InAx():
            return Mem(t, args[0])
        case EqAx():
            return Eq(t, args[0])
        case NwfAx():
            return Mem(t, NwfConst("C"))
        case Sep0Ax():
            return Mem(t, NwfConst("D"))
        case IndAx():
            raise NoTermFormError("induction has no membership head")
        case _:
            return MemI(t, term_head(ax, args))


def _freshes(k: int, avoid: frozenset[str], bases: tuple[str, ...]) -> list[str]:
    out: list[str] = []
    taken = set(avoid)
    for i in range(k):
        n = fresh_name(bases[i % len(bases)], taken)
        out.append(n)
        taken.add(n)
    return out


def phi_A(ax: AxiomId, c: Term, args: tuple[Term, ...]) -> Formula:
    """The defining formula phi_A(c, args), fully instantiated.

    For In/Eq this is the right-hand side of (IN)/(EQ); for Ind it is the
    induction-hypothesis premise shape at c.  Schema instantiation commutes
    with substitution because schema binders are renamed away from the
    arguments' free variables before instantiating.
    """
    _check_arity(ax, args)
    avoid = free_vars(c) | frozenset().union(frozenset(), *(free_vars(u) for u in args))
    match ax:
        case EmptyAx():
            return Bottom()
        case PairAx():
            return Or(Eq(c, args[0]), Eq(c, args[1]))
        case InfAx():
            (b,) = _freshes(1, avoid, ("b",))
            return Or(
                Eq(c, Empty()),
                Exists(b, And(Mem(Var(b), Omega()), Eq(c, succ_term(Var(b))))),
            )
        case UnionAx():
            (b,) = _freshes(1, avoid | bound_names(args[0]), ("b",))
            return Exists(b, And(Mem(Var(b), args[0]), Mem(c, Var(b))))
        case PowerAx():
            (b,) = _freshes(1, avoid | bound_names(args[0]), ("b",))
            return Forall(b, Imp(Mem(Var(b), c), Mem(Var(b), args[0])))
        case SepAx(z, ps, body):
            inst = substitute_many(body, {z: c, **dict(zip(ps, args[1:]))})
            return And(Mem(c, args[0]), inst)
        case ReplAx(z, y, ps, body):
            return _phi_repl(z, y, ps, body, c, args, avoid)
        case InacAx(i):
            cv = _as_var_or_fresh(c, avoid)
            d = fresh_name("d", avoid | {cv})
            left = inac_phi1(i, cv)
            out = And(left, Forall(d, Imp(inac_phi2(i, d), Mem(Var(cv), Var(d)))))
            return substitute(out, cv, c) if not _is_var(c, cv) else out
        case InAx():
            (d,) = _freshes(1, avoid, ("c",))
            return Exists(d, And(MemI(Var(d), args[0]), Eq(c, Var(d))))
        case EqAx():
            (d,) = _freshes(1, avoid, ("d",))
            return Forall(
                d,
                And(
                    Imp(MemI(Var(d), c), Mem(Var(d), args[0])),
                    Imp(MemI(Var(d), args[0]), Mem(Var(d), c)),
                ),
            )
        case IndAx(a, ps, body):
            env = dict(zip(ps, args))
            (b,) = _freshes(1, avoid | free_vars(body) | bound_names(body), ("b",))
            at_b = substitute_many(body, {a: Var(b), **env})
            at_c = substitute_many(body, {a: c, **env})
            return Imp(Forall(b, Imp(MemI(Var(b), c), at_b)), at_c)
        case NwfAx():
            (x,) = _freshes(1, avoid, ("e",))
            cc = NwfConst("C")
            return Forall(
                x,
                And(
                    Imp(Mem(Var(x), c), Mem(Var(x), cc)),
                    Imp(Mem(Var(x), cc), Mem(Var(x), c)),
                ),
            )
        case Sep0Ax():
            cc = NwfConst("C")
            return And(Mem(c, cc), Imp(Mem(c, c), Mem(c, cc)))
    raise TypeError(f"not an axiom id: {ax!r}")


def _is_var(c: Term, name: str) -> bool:
    return isinstance(c, Var) and c.name == name


def _as_var_or_fresh(c: Term, avoid: frozenset[str]) -> str:
    if isinstance(c, Var):
        return c.name
    return fresh_name("c", avoid)


def _phi_repl(
    z: str,
    y: str,
    ps: tuple[str, ...],
    body: Formula,
    c: Term,
    args: tuple[Term, ...],
    avoid: frozenset[str],
) -> Formula:
    carrier = args[0]
    env = dict(zip(ps, args[1:]))
    taken = avoid | free_vars(body) | bound_names(body)
    x1 = fresh_name(z, taken)
    taken |= {x1}
    y1 = fresh_name(y, taken)
    taken |= {y1}
    y2 = fresh_name("e", taken)
    at = lambda xx, yy: substitute_many(body, {z: xx, y: yy, **env})
    functional = Forall(
        x1,
        Imp(
            Mem(Var(x1), carrier),
            Exists(
                y1,
                And(
                    at(Var(x1), Var(y1)),
                    Forall(y2, Imp(at(Var(x1), Var(y2)), Eq(Var(y2), Var(y1)))),
                ),
            ),
        ),
    )
    witness = Exists(x1, And(Mem(Var(x1), carrier), at(Var(x1), c)))
    return And(functional, witness)


# ---------------------------------------------------------------------------
# Inaccessibility formulas


def func_formula(c: Term, a: Term, w: Term) -> Formula:
    """Spell out "c is a function from a to w" with Kuratowski pairing.

    Reads: every x in a has exactly one y in w with (x, y) in c, and every
    z in c is such a pair.  Bounded unique existence takes the shape used in
    the function-closure argument: a witness in w whose property-instances
    all equal it.
    """
    avoid = free_vars(c) | free_vars(a) | free_vars(w)
    x, y, zz, u = _freshes(4, avoid, ("x", "y", "z", "u"))
    pair_in = lambda xx, yy: Mem(kuratowski(xx, yy), c)
    total = Forall(
        x,
        Imp(
            Mem(Var(x), a),
            Exists(
                y,
                And(
                    Mem(Var(y), w),
                    And(
                        pair_in(Var(x), Var(y)),
                        Forall(u, Imp(pair_in(Var(x), Var(u)), Eq(Var(u), Var(y)))),
                    ),
                ),
            ),
        ),
    )
    onto_pairs = Forall(
        zz,
        Imp(
            Mem(Var(zz), c),
            Exists(
                x,
                And(
                    Mem(Var(x), a),
                    Exists(y, And(Mem(Var(y), w), Eq(Var(zz), kuratowski(Var(x), Var(y))))),
                ),
            ),
        ),
    )
    return And(total, onto_pairs)


def inac_phi1(i: int, c: str) -> Formula:
    """Membership conditions for V_i: the five-way disjunction."""
    if i < 1:
        raise ValueError("inaccessible index must be >= 1")
    vi = Inac(i)
    a = fresh_name("a", frozenset((c,)))
    in_vi = Mem(Var(a), vi)
    clauses = [
        Eq(Var(c), v_index(i - 1)),
        Exists(a, And(in_vi, Mem(Var(c), Var(a)))),
        Exists(a, And(in_vi, Eq(Var(c), UnionT(Var(a))))),
        Exists(a, And(in_vi, Eq(Var(c), PowerT(Var(a))))),
        Exists(a, And(in_vi, func_formula(Var(c), Var(a), vi))),
    ]
    out = clauses[-1]
    for cl in reversed(clauses[:-1]):
        out = Or(cl, out)
    return out


def inac_phi2(i: int, d: str) -> Formula:
    """Inaccessibility conditions for d: the five-way conjunction."""
    if i < 1:
        raise ValueError("inaccessible index must be >= 1")
    e, f = _freshes(2, frozenset((d,)), ("e", "f"))
    dv = Var(d)
    clauses = [
        Mem(v_index(i - 1), dv),
        Forall(e, Forall(f, Imp(And(Mem(Var(e), dv), Mem(Var(f), Var(e))), Mem(Var(f), dv)))),
        Forall(e, Imp(Mem(Var(e), dv), Mem(UnionT(Var(e)), dv))),
        Forall(e, Imp(Mem(Var(e), dv), Mem(PowerT(Var(e)), dv))),
        Forall(
            e,
            Imp(
                Mem(Var(e), dv),
                Forall(f, Imp(func_formula(Var(f), Var(e), dv), Mem(Var(f), dv))),
            ),
        ),
    ]
    out = clauses[-1]
    for cl in reversed(clauses[:-1]):
        out = And(cl, out)
    return out


def disjuncts(phi: Formula) -> list[Formula]:
    """Split a right-nested disjunction into its clauses."""
    out = []
    while isinstance(phi, Or):
        out.append(phi.left)
        phi = phi.right
    out.append(phi)
    return out


def conjuncts(phi: Formula) -> list[Formula]:
    """Split a right-nested conjunction into its clauses."""
    out = []
    while isinstance(phi, And):
        out.append(phi.left)
        phi = phi.right
    out.append(phi)
    return out


# ---------------------------------------------------------------------------
# Closed axiom statements


def axiom_statement(ax: AxiomId) -> Formula:
    """The full universally quantified axiom."""
    match ax:
        case InAx():
            a, b = "a", "b"
            return forall_many((a, b), iff(Mem(Var(a), Var(b)), phi_A(ax, Var(a), (Var(b),))))
        case EqAx():
            a, b = "a", "b"
            return forall_many((a, b), iff(Eq(Var(a), Var(b)), phi_A(ax, Var(a), (Var(b),))))
        case IndAx(binder, params, body):
            taken = free_vars(body) | bound_names(body) | set(params) | {binder}
            a = fresh_name("a", taken)
            args = tuple(Var(p) for p in params)
            premise = Forall(a, phi_A(ax, Var(a), args))
            concl = Forall(a, substitute_many(body, {binder: Var(a)}))
            return forall_many(params, Imp(premise, concl))
        case NwfAx() | Sep0Ax():
            c = "a"
            return Forall(c, iff(head_formula(ax, Var(c), ()), phi_A(ax, Var(c), ())))
        case _:
            k = arity(ax)
            avoid = free_vars(ax) | bound_names(ax)
            names = _freshes(k, avoid, ("a", "b", "f"))
            c = fresh_name("c", avoid | set(names))
            args = tuple(Var(n) for n in names)
            return forall_many(
                names + [c],
                iff(MemI(Var(c), term_head(ax, args)), phi_A(ax, Var(c), args)),
            )


def is_nwf_axiom(ax: AxiomId) -> bool:
    return isinstance(ax, (NwfAx, Sep0Ax))
