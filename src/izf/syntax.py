"""First-order terms and formulas of the set theory.

Terms and formulas are mutually recursive: the separation and replacement
set terms carry a schema formula together with the variables it binds.
Three atomic relations exist and are kept distinct throughout: intensional
membership (MemI), extensional membership (Mem) and equality (Eq).

All nodes are immutable; every operation returns fresh structure.
``to_nameless`` is the package's one binding-invariant key: ``alpha_eq``
compares it, and the proof keys and realizability memo keys are built on it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Union


class Term:
    """Base class for set terms."""

    __slots__ = ()


class Formula:
    """Base class for formulas."""

    __slots__ = ()


Tree = Union[Term, Formula]


# ---------------------------------------------------------------------------
# Core terms


@dataclass(frozen=True)
class Var(Term):
    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variable name must be non-empty")


@dataclass(frozen=True)
class Empty(Term):
    pass


@dataclass(frozen=True)
class Omega(Term):
    pass


@dataclass(frozen=True)
class Inac(Term):
    """The i-th inaccessible-set constant, i >= 1 (index 0 is just omega)."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("inaccessible index must be >= 1")


@dataclass(frozen=True)
class NwfConst(Term):
    """One of the two extra constants of the non-well-founded mode."""

    name: str  # "C" or "D"

    def __post_init__(self) -> None:
        if self.name not in ("C", "D"):
            raise ValueError("nwf constant must be C or D")


@dataclass(frozen=True)
class NameRef(Term):
    """Constant referring to a model element.

    The realizability language extends the signature with one constant per
    name in the model universe; the payload is opaque here and only needs
    equality and hashing.
    """

    payload: object


@dataclass(frozen=True)
class PairT(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class UnionT(Term):
    arg: Term


@dataclass(frozen=True)
class PowerT(Term):
    arg: Term


@dataclass(frozen=True)
class Sep(Term):
    """Separation set term: carries its schema formula explicitly.

    ``binder`` is the member variable of the schema body, ``params`` the
    parameter variables, instantiated positionally by ``args``.  All free
    variables of ``body`` must be among ``binder`` and ``params``; unused
    params are permitted.
    """

    binder: str
    params: tuple[str, ...]
    body: Formula
    carrier: Term
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        if len(self.params) != len(self.args):
            raise ValueError("separation term: params/args length mismatch")


@dataclass(frozen=True)
class Repl(Term):
    """Replacement set term; binder1/binder2 are the input/output variables."""

    binder1: str
    binder2: str
    params: tuple[str, ...]
    body: Formula
    carrier: Term
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        if len(self.params) != len(self.args):
            raise ValueError("replacement term: params/args length mismatch")


# ---------------------------------------------------------------------------
# Core formulas


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class MemI(Formula):
    """Intensional membership, the primitive relation."""

    left: Term
    right: Term


@dataclass(frozen=True)
class Mem(Formula):
    """Extensional membership, defined from MemI by the (IN) axiom."""

    left: Term
    right: Term


@dataclass(frozen=True)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Forall(Formula):
    binder: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    binder: str
    body: Formula


# ---------------------------------------------------------------------------
# Sugar nodes.  These never survive into the kernel: desugar() eliminates
# them, and the structural operations below reject them.


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Zero(Term):
    pass


@dataclass(frozen=True)
class Succ(Term):
    arg: Term


@dataclass(frozen=True)
class Numeral(Term):
    value: int

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("numerals are non-negative")


@dataclass(frozen=True)
class BoundedForall(Formula):
    binder: str
    bound: Term
    body: Formula


@dataclass(frozen=True)
class BoundedExists(Formula):
    binder: str
    bound: Term
    body: Formula


@dataclass(frozen=True)
class ExistsUnique(Formula):
    binder: str
    body: Formula


_SUGAR = (Not, Iff, Zero, Succ, Numeral, BoundedForall, BoundedExists, ExistsUnique)


def desugar(x: Tree) -> Tree:
    """Expand every sugar node into core syntax.

    Negation becomes implication into Bottom, Iff a conjunction of two
    implications, Succ(t) the union of {t, {t, t}}, Numeral(n) the n-fold
    Succ of Empty, bounded quantifiers guarded quantifiers, and unique
    existence the usual fresh-variable expansion.
    """
    match x:
        case Not(phi):
            return Imp(desugar(phi), Bottom())
        case Iff(l, r):
            dl, dr = desugar(l), desugar(r)
            return And(Imp(dl, dr), Imp(dr, dl))
        case Zero():
            return Empty()
        case Succ(t):
            dt = desugar(t)
            return UnionT(PairT(dt, PairT(dt, dt)))
        case Numeral(n):
            t: Tree = Empty()
            for _ in range(n):
                t = UnionT(PairT(t, PairT(t, t)))
            return t
        case BoundedForall(a, bound, body):
            return Forall(a, Imp(Mem(Var(a), desugar(bound)), desugar(body)))
        case BoundedExists(a, bound, body):
            return Exists(a, And(Mem(Var(a), desugar(bound)), desugar(body)))
        case ExistsUnique(a, body):
            db = desugar(body)
            b = fresh_name(a, free_vars(db) | bound_names(db) | {a})
            return Exists(a, And(db, Forall(b, Imp(substitute(db, a, Var(b)), Eq(Var(b), Var(a))))))
        case Var() | Empty() | Omega() | Inac() | NwfConst() | NameRef():
            return x
        case PairT(l, r):
            return PairT(desugar(l), desugar(r))
        case UnionT(t):
            return UnionT(desugar(t))
        case PowerT(t):
            return PowerT(desugar(t))
        case Sep(z, ps, body, carrier, args):
            return Sep(z, ps, desugar(body), desugar(carrier), tuple(desugar(u) for u in args))
        case Repl(z, y, ps, body, carrier, args):
            return Repl(z, y, ps, desugar(body), desugar(carrier), tuple(desugar(u) for u in args))
        case Bottom():
            return x
        case MemI(l, r):
            return MemI(desugar(l), desugar(r))
        case Mem(l, r):
            return Mem(desugar(l), desugar(r))
        case Eq(l, r):
            return Eq(desugar(l), desugar(r))
        case And(l, r):
            return And(desugar(l), desugar(r))
        case Or(l, r):
            return Or(desugar(l), desugar(r))
        case Imp(l, r):
            return Imp(desugar(l), desugar(r))
        case Forall(a, body):
            return Forall(a, desugar(body))
        case Exists(a, body):
            return Exists(a, desugar(body))
    raise TypeError(f"not a term or formula: {x!r}")


def _reject_sugar(x: Tree) -> None:
    if isinstance(x, _SUGAR):
        raise TypeError(f"sugar node reached a kernel operation: {x!r}; call desugar first")


# ---------------------------------------------------------------------------
# Free variables, the nameless key and fresh names


def free_vars(x: Tree) -> frozenset[str]:
    """Variables with a free occurrence; schema binders bind their bodies."""
    _reject_sugar(x)
    match x:
        case Var(a):
            return frozenset((a,))
        case Empty() | Omega() | Inac() | NwfConst() | NameRef() | Bottom():
            return frozenset()
        case PairT(l, r):
            return free_vars(l) | free_vars(r)
        case UnionT(t) | PowerT(t):
            return free_vars(t)
        case Sep(z, ps, body, carrier, args):
            inner = free_vars(body) - ({z} | set(ps))
            return inner | free_vars(carrier) | _fv_all(args)
        case Repl(z, y, ps, body, carrier, args):
            inner = free_vars(body) - ({z, y} | set(ps))
            return inner | free_vars(carrier) | _fv_all(args)
        case MemI(l, r) | Mem(l, r) | Eq(l, r):
            return free_vars(l) | free_vars(r)
        case And(l, r) | Or(l, r) | Imp(l, r):
            return free_vars(l) | free_vars(r)
        case Forall(a, body) | Exists(a, body):
            return free_vars(body) - {a}
    raise TypeError(f"not a term or formula: {x!r}")


def _fv_all(xs: tuple[Term, ...]) -> frozenset[str]:
    out: frozenset[str] = frozenset()
    for t in xs:
        out |= free_vars(t)
    return out


def to_nameless(x: Tree, stack: tuple[str, ...] = ()) -> tuple:
    """Binding-invariant key: equal tuples iff alpha-equal trees.

    Bound variables become de Bruijn indices into ``stack`` (innermost
    binder last), free variables keep their names.  The tuples are hashable
    whenever the ``NameRef`` payloads are.
    """
    match x:
        case Var(a):
            for i in range(len(stack) - 1, -1, -1):
                if stack[i] == a:
                    return ("bound", len(stack) - 1 - i)
            return ("free", a)
        case Empty():
            return ("empty",)
        case Omega():
            return ("omega",)
        case Inac(i):
            return ("inac", i)
        case NwfConst(n):
            return ("nwf", n)
        case NameRef(p):
            return ("nameref", p)
        case PairT(l, r):
            return ("pair", to_nameless(l, stack), to_nameless(r, stack))
        case UnionT(t):
            return ("union", to_nameless(t, stack))
        case PowerT(t):
            return ("power", to_nameless(t, stack))
        case Sep(z, ps, body, carrier, args):
            return (
                "sep",
                len(ps),
                to_nameless(body, stack + (z,) + ps),
                to_nameless(carrier, stack),
                tuple(to_nameless(u, stack) for u in args),
            )
        case Repl(z, y, ps, body, carrier, args):
            return (
                "repl",
                len(ps),
                to_nameless(body, stack + (z, y) + ps),
                to_nameless(carrier, stack),
                tuple(to_nameless(u, stack) for u in args),
            )
        case Bottom():
            return ("bot",)
        case MemI(l, r):
            return ("memi", to_nameless(l, stack), to_nameless(r, stack))
        case Mem(l, r):
            return ("mem", to_nameless(l, stack), to_nameless(r, stack))
        case Eq(l, r):
            return ("eq", to_nameless(l, stack), to_nameless(r, stack))
        case And(l, r):
            return ("and", to_nameless(l, stack), to_nameless(r, stack))
        case Or(l, r):
            return ("or", to_nameless(l, stack), to_nameless(r, stack))
        case Imp(l, r):
            return ("imp", to_nameless(l, stack), to_nameless(r, stack))
        case Forall(a, body):
            return ("forall", to_nameless(body, stack + (a,)))
        case Exists(a, body):
            return ("exists", to_nameless(body, stack + (a,)))
    raise TypeError(f"not a term or formula: {x!r}")


def bound_names(x: Tree) -> frozenset[str]:
    """All binder names occurring anywhere in the tree."""
    match x:
        case Var() | Empty() | Omega() | Inac() | NwfConst() | NameRef() | Bottom():
            return frozenset()
        case PairT(l, r):
            return bound_names(l) | bound_names(r)
        case UnionT(t) | PowerT(t):
            return bound_names(t)
        case Sep(z, ps, body, carrier, args):
            out = frozenset({z} | set(ps)) | bound_names(body) | bound_names(carrier)
            for u in args:
                out |= bound_names(u)
            return out
        case Repl(z, y, ps, body, carrier, args):
            out = frozenset({z, y} | set(ps)) | bound_names(body) | bound_names(carrier)
            for u in args:
                out |= bound_names(u)
            return out
        case MemI(l, r) | Mem(l, r) | Eq(l, r):
            return bound_names(l) | bound_names(r)
        case And(l, r) | Or(l, r) | Imp(l, r):
            return bound_names(l) | bound_names(r)
        case Forall(a, body) | Exists(a, body):
            return frozenset((a,)) | bound_names(body)
    raise TypeError(f"not a term or formula: {x!r}")


_SUFFIX = re.compile(r"^(.*?)(\d*)$")


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    """Deterministic fresh name: smallest numeric suffix of the stem of base."""
    stem = _SUFFIX.match(base).group(1) or "v"
    if base not in avoid:
        return base
    n = 1
    while f"{stem}{n}" in avoid:
        n += 1
    return f"{stem}{n}"


# ---------------------------------------------------------------------------
# Substitution


def substitute(x: Tree, a: str, s: Term) -> Tree:
    """Capture-avoiding substitution of the term s for the variable a."""
    return substitute_many(x, {a: s})


def substitute_many(x: Tree, env: dict[str, Term]) -> Tree:
    """Simultaneous capture-avoiding substitution."""
    _reject_sugar(x)
    live = {a: s for a, s in env.items() if s != Var(a)}
    if not live:
        return x
    return _subst(x, live)


def _subst(x: Tree, env: dict[str, Term]) -> Tree:
    match x:
        case Var(a):
            return env.get(a, x)
        case Empty() | Omega() | Inac() | NwfConst() | NameRef() | Bottom():
            return x
        case PairT(l, r):
            return PairT(_subst(l, env), _subst(r, env))
        case UnionT(t):
            return UnionT(_subst(t, env))
        case PowerT(t):
            return PowerT(_subst(t, env))
        case Sep(z, ps, body, carrier, args):
            # Schema binders seal the body: substitution touches only
            # carrier and args.
            return Sep(z, ps, body, _subst(carrier, env), tuple(_subst(u, env) for u in args))
        case Repl(z, y, ps, body, carrier, args):
            return Repl(z, y, ps, body, _subst(carrier, env), tuple(_subst(u, env) for u in args))
        case MemI(l, r):
            return MemI(_subst(l, env), _subst(r, env))
        case Mem(l, r):
            return Mem(_subst(l, env), _subst(r, env))
        case Eq(l, r):
            return Eq(_subst(l, env), _subst(r, env))
        case And(l, r):
            return And(_subst(l, env), _subst(r, env))
        case Or(l, r):
            return Or(_subst(l, env), _subst(r, env))
        case Imp(l, r):
            return Imp(_subst(l, env), _subst(r, env))
        case Forall(a, body):
            a2, body2, env2 = _enter_binder(a, body, env)
            return Forall(a2, _subst(body2, env2) if env2 else body2)
        case Exists(a, body):
            a2, body2, env2 = _enter_binder(a, body, env)
            return Exists(a2, _subst(body2, env2) if env2 else body2)
    raise TypeError(f"not a term or formula: {x!r}")


def _enter_binder(
    a: str, body: Formula, env: dict[str, Term]
) -> tuple[str, Formula, dict[str, Term]]:
    """Rename the binder if it would capture; drop it from the environment."""
    env2 = {v: s for v, s in env.items() if v != a}
    if not env2:
        return a, body, env2
    clashes = frozenset().union(*(free_vars(s) for s in env2.values()))
    if a in clashes:
        avoid = clashes | free_vars(body) | frozenset(env2)
        a2 = fresh_name(a, avoid)
        body = _subst(body, {a: Var(a2)})
        return a2, body, env2
    return a, body, env2


# ---------------------------------------------------------------------------
# Alpha equivalence


def alpha_eq(x: Tree, y: Tree) -> bool:
    """Equality up to consistent renaming of bound variables."""
    return x is y or to_nameless(x) == to_nameless(y)


# ---------------------------------------------------------------------------
# Convenience constructors used across the package


def iff(l: Formula, r: Formula) -> Formula:
    return And(Imp(l, r), Imp(r, l))


def neg(phi: Formula) -> Formula:
    return Imp(phi, Bottom())


def succ_term(t: Term) -> Term:
    return UnionT(PairT(t, PairT(t, t)))


def numeral(n: int) -> Term:
    t: Term = Empty()
    for _ in range(n):
        t = succ_term(t)
    return t


def kuratowski(x: Term, y: Term) -> Term:
    """Ordered pair {{x, x}, {x, y}}."""
    return PairT(PairT(x, x), PairT(x, y))


def forall_many(names: Iterator[str] | tuple[str, ...] | list[str], body: Formula) -> Formula:
    out = body
    for a in reversed(tuple(names)):
        out = Forall(a, out)
    return out


def v_index(i: int) -> Term:
    """V_i with the convention that V_0 abbreviates omega."""
    if i < 0:
        raise ValueError("negative inaccessible index")
    return Omega() if i == 0 else Inac(i)
