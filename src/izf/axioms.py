"""The axiom catalogue: one row per family, in the paper's notation.

Every axiom but set induction has one shape in the paper,

    forall a.. forall c, c R t_A(a..) <-> phi_A(c, a..),

with R intensional membership (``ini``) for the set-term families,
extensional membership (``in``) for (IN) and the two axioms of the nwf mode,
and equality for (EQ).  ``FAMILIES`` is the only place a family is
described.  A family without a schema is written as that statement in the
concrete syntax, over placeholder names.  Its quantifiers give the arity and
the order of the arguments.  The left side of ``<->`` gives R, the
placeholder of c, and the term head t_A; in (IN) and (EQ) that is the
argument itself, so they have no term form.  The right side is phi_A.  An
inaccessible's statement also names its V_i and V_{i-1}, as ``Vi`` and
``Vh``.  The statements are parsed on first use, because the parser imports
this module.  One ``substitute_many`` instantiates a piece, so capture
avoidance comes from substitution.  Separation, replacement and induction
carry a formula; their rows are small functions of the identifier.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .syntax import (
    FO_BINDER,
    FO_BINDERS,
    FORMULA,
    LITERAL,
    And,
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
    Or,
    Repl,
    Sep,
    Term,
    Var,
    _shape,
    bound_names,
    declare,
    forall_many,
    free_vars,
    fresh_name,
    iff,
    substitute_many,
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




# ---------------------------------------------------------------------------
# The catalogue


class Row(NamedTuple):
    """One family; each function takes the identifier, so that one row
    serves every instance of a schema."""

    arity: int  # a schema takes one more argument per parameter
    rel: type | None  # R; induction has none
    term: Callable | None  # t_A(ax, args); none where R takes the argument itself
    phi: Callable  # phi_A(ax, c, args)
    statement: Callable  # the closed axiom
    nwf: bool = False  # an axiom of the nwf mode only


# "c is a function from a to w", with Kuratowski pairs: every x in a has
# exactly one y in w with (x, y) in c, and every z in c is such a pair.
FUNC = (
    r"(forall x, x in a -> (exists y, y in w /\ {{x, x}, {x, y}} in c"
    r" /\ (forall u, {{x, x}, {x, u}} in c -> u = y)))"
    r" /\ (forall z, z in c -> (exists x, x in a /\ (exists y, y in w /\ z = {{x, x}, {x, y}})))"
)


def _func(c: str, a: str, w: str) -> str:
    return re.sub(r"\b[caw]\b", lambda m: {"c": c, "a": a, "w": w}[m.group()], FUNC)


# c is a member of V_i (Vi), and d is closed like an inaccessible above V_{i-1} (Vh).
INAC_PHI1 = (
    r"c = Vh \/ (exists a, a in Vi /\ c in a) \/ (exists a, a in Vi /\ c = union a)"
    rf" \/ (exists a, a in Vi /\ c = power a) \/ (exists a, a in Vi /\ {_func('c', 'a', 'Vi')})"
)
INAC_PHI2 = (
    r"Vh in d /\ (forall e, forall f, e in d /\ f in e -> f in d) /\ (forall e, e in d -> union e in d)"
    r" /\ (forall e, e in d -> power e in d)"
    rf" /\ (forall e, e in d -> (forall f, {_func('f', 'e', 'd')} -> f in d))"
)


def _inaccessibles(i: int) -> dict[str, Term]:
    return {"Vi": Inac(i), "Vh": v_index(i - 1)}


_PARSED: dict[str, Formula] = {}


def _parsed(text: str) -> Formula:
    """A template of this module, parsed on first use."""
    if text not in _PARSED:
        from .parser import parse_formula

        _PARSED[text] = parse_formula(text)
    return _PARSED[text]


def _template_row(text: str, consts: Callable = lambda ax: {}) -> Row:
    """The row of a family written as its statement; ``consts`` gives the
    identifier's values of the statement's free names."""
    stmt = body = _parsed(text)
    names = []
    while isinstance(body, Forall):
        names.append(body.binder)
        body = body.body
    head, phi = body.left.left, body.left.right  # head <-> phi is (head -> phi) /\ (phi -> head)
    c, t = head.left.name, head.right
    params = tuple(n for n in names if n != c)
    inst = lambda x, ax, env: substitute_many(x, {**env, **consts(ax)})
    return Row(
        len(params),
        type(head),
        None if t in map(Var, params) else lambda ax, args: inst(t, ax, dict(zip(params, args))),
        lambda ax, e, args: inst(phi, ax, {c: e, **dict(zip(params, args))}),
        lambda ax: inst(stmt, ax, {}),
        isinstance(t, NwfConst),
    )


def _body(ax: AxiomId, at: dict[str, Term], args: tuple[Term, ...]) -> Formula:
    """A schema's body with its binders at ``at`` and its parameters at ``args``."""
    return substitute_many(ax.body, {**at, **dict(zip(ax.params, args))})


def _taken(ax: AxiomId, c: Term, args: tuple[Term, ...]) -> frozenset[str]:
    return free_vars(c).union(free_vars(ax.body), bound_names(ax.body), *map(free_vars, args))


def _repl_phi(ax: ReplAx, c: Term, args: tuple[Term, ...]) -> Formula:
    """The body is functional on the carrier, and c is the image of a member."""
    taken = _taken(ax, c, args)
    x = fresh_name(ax.binder1, taken)
    y = fresh_name(ax.binder2, taken | {x})
    e = fresh_name("e", taken | {x, y})
    at = lambda v: _body(ax, {ax.binder1: Var(x), ax.binder2: v}, args[1:])
    unique = Forall(e, Imp(at(Var(e)), Eq(Var(e), Var(y))))
    functional = Forall(x, Imp(Mem(Var(x), args[0]), Exists(y, And(at(Var(y)), unique))))
    return And(functional, Exists(x, And(Mem(Var(x), args[0]), at(c))))


def _ind_phi(ax: IndAx, c: Term, args: tuple[Term, ...]) -> Formula:
    """The induction premise at c: (forall b, b ini c -> phi(b)) -> phi(c)."""
    b = fresh_name("b", _taken(ax, c, args))
    premise = Forall(b, Imp(MemI(Var(b), c), _body(ax, {ax.binder: Var(b)}, args)))
    return Imp(premise, _body(ax, {ax.binder: c}, args))


def _schema_statement(ax: AxiomId) -> Formula:
    """forall a.., forall c, c ini t_A(a..) <-> phi_A(c, a..), over names
    clear of the schema's own."""
    k = arity(ax)
    taken, names = free_vars(ax) | bound_names(ax), []
    for i in range(k + 1):
        names.append(fresh_name("abf"[i % 3] if i < k else "c", taken | set(names)))
    *args, c = map(Var, names)
    return forall_many(names, iff(head_formula(ax, c, tuple(args)), phi_A(ax, c, tuple(args))))


def _ind_statement(ax: IndAx) -> Formula:
    """forall params, (forall a, the premise at a) -> forall a, phi(a)."""
    a = fresh_name("a", free_vars(ax.body) | bound_names(ax.body) | set(ax.params) | {ax.binder})
    args = tuple(map(Var, ax.params))
    premise = Forall(a, phi_A(ax, Var(a), args))
    return forall_many(ax.params, Imp(premise, Forall(a, substitute_many(ax.body, {ax.binder: Var(a)}))))


# Each family once: its statement over placeholder names, or a schema's row.
FAMILIES: dict[type, str | tuple | Row] = {
    EmptyAx: r"forall c, c ini empty <-> bot",
    PairAx: r"forall a, forall b, forall c, c ini {a, b} <-> c = a \/ c = b",
    InfAx: r"forall c, c ini omega <-> c = empty \/ (exists b, b in omega /\ c = S(b))",
    UnionAx: r"forall a, forall c, c ini union a <-> (exists b, b in a /\ c in b)",
    PowerAx: r"forall a, forall c, c ini power a <-> (forall b, b in c -> b in a)",
    InAx: r"forall a, forall b, a in b <-> (exists c, c ini b /\ a = c)",
    EqAx: r"forall a, forall b, a = b <-> (forall d, (d ini a -> d in b) /\ (d ini b -> d in a))",
    NwfAx: r"forall a, a in nwfC <-> (forall e, (e in a -> e in nwfC) /\ (e in nwfC -> e in a))",
    Sep0Ax: r"forall a, a in nwfD <-> a in nwfC /\ (a in a -> a in nwfC)",
    InacAx: (
        rf"forall c, c ini Vi <-> ({INAC_PHI1}) /\ (forall d, {INAC_PHI2} -> c in d)",
        lambda ax: _inaccessibles(ax.index),
    ),
    SepAx: Row(
        1,
        MemI,
        lambda ax, args: Sep(ax.binder, ax.params, ax.body, args[0], args[1:]),
        lambda ax, c, args: And(Mem(c, args[0]), _body(ax, {ax.binder: c}, args[1:])),
        _schema_statement,
    ),
    ReplAx: Row(
        1,
        MemI,
        lambda ax, args: Repl(ax.binder1, ax.binder2, ax.params, ax.body, args[0], args[1:]),
        _repl_phi,
        _schema_statement,
    ),
    IndAx: Row(0, None, None, _ind_phi, _ind_statement),
}
_ROWS: dict[type, Row] = {}


def _row(ax: AxiomId) -> Row:
    if type(ax) not in _ROWS:
        spec = FAMILIES.get(type(ax))
        if spec is None:
            raise TypeError(f"not an axiom id: {ax!r}")
        if not isinstance(spec, Row):
            spec = _template_row(*spec) if isinstance(spec, tuple) else _template_row(spec)
        _ROWS[type(ax)] = spec
    return _ROWS[type(ax)]


def arity(ax: AxiomId) -> int:
    """Number of argument terms the axiom's term/formula family expects."""
    return _row(ax).arity + len(getattr(ax, "params", ()))


def _checked(ax: AxiomId, args: tuple[Term, ...]) -> Row:
    if len(args) != arity(ax):
        raise ArityError(f"{ax!r} expects {arity(ax)} argument(s), got {len(args)}")
    return _row(ax)


def term_head(ax: AxiomId, args: tuple[Term, ...]) -> Term:
    """The set term t_A(args); In/Eq/Ind have no term form."""
    row = _checked(ax, args)
    if row.term is None:
        raise NoTermFormError(f"{type(ax).__name__} has no term form")
    return row.term(ax, args)


def head_formula(ax: AxiomId, t: Term, args: tuple[Term, ...]) -> Formula:
    """The conclusion an introduction proof term gets: t R t_A(args), or t R
    args[0] for (IN) and (EQ)."""
    row = _checked(ax, args)
    if row.rel is None:
        raise NoTermFormError("induction has no membership head")
    return row.rel(t, args[0] if row.term is None else row.term(ax, args))


def phi_A(ax: AxiomId, c: Term, args: tuple[Term, ...]) -> Formula:
    """The defining formula phi_A(c, args), fully instantiated; for Ind the
    induction-hypothesis premise shape at c."""
    return _checked(ax, args).phi(ax, c, args)


def axiom_statement(ax: AxiomId) -> Formula:
    """The full universally quantified axiom."""
    return _row(ax).statement(ax)


def is_nwf_axiom(ax: AxiomId) -> bool:
    return _row(ax).nwf


def func_formula(c: Term, a: Term, w: Term) -> Formula:
    """"c is a function from a to w", spelled out with Kuratowski pairs."""
    return substitute_many(_parsed(FUNC), {"c": c, "a": a, "w": w})


def inac_phi1(i: int, c: str) -> Formula:
    """Membership conditions for V_i: the five-way disjunction."""
    return substitute_many(_parsed(INAC_PHI1), {"c": Var(c), **_inaccessibles(i)})


def inac_phi2(i: int, d: str) -> Formula:
    """Inaccessibility conditions for d: the five-way conjunction."""
    return substitute_many(_parsed(INAC_PHI2), {"d": Var(d), **_inaccessibles(i)})


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
