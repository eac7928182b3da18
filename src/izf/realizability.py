"""Desk-scale realizability: names, the atomic relations, and the clauses.

Names are hereditarily finite sets of (erased value, name) pairs with
alpha-aware set semantics.  The realizability relation follows the clause
definitions literally, with two finite surrogates for the class-sized
quantifiers: candidate member names come from the names embedded in the
relevant sets (which is exhaustive for the intensional conjuncts), while
hypothesis realizers and instantiating terms come from configured pools,
which is a genuine truncation.  With ``truncated=False`` the pools are
treated as exhaustive and every verdict is decisive; with ``truncated=True``
a universally quantified pool position that merely survives its pool
reports Unknown instead.  Fuel exhaustion always reports Unknown.

Each query runs one evaluator, ``_Eval``, whose tables die with the query,
so that each piece of work is done once per query: the small int standing
for each nameless key (so memo keys hash in O(1), and a node met again is
not keyed again), each normal form, each instantiation of a lambda's body,
each label's ``label_key``, each relation instance's verdict, each term's
meaning and each hypothesis pool.  A name hashes in O(1) too: it computes
its hash once, when it is built.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import lru_cache
from typing import Callable

from .proof_ops import canon, canon_key, esubst_prop, esubst_term
from .proofs import (
    EAxRep,
    EExIntro,
    EInl,
    EInr,
    ELamF,
    ELamP,
    EPairP,
    EPropVar,
    ErasedProof,
    is_value,
)
from .reduction import normalize
from .realizers import mk_eqRefl, mk_eqSymm
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
    NameRef,
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
    free_vars,
    map_children,
    succ_term,
    to_nameless,
)


class UnsupportedFormulaError(Exception):
    pass


# ---------------------------------------------------------------------------
# Lambda-names


def label_key(key: tuple) -> str:
    """The string a label with canon key ``key`` is sorted and found by.

    It is the repr of the key with every name constant spelled as that
    name's own key: a name's repr shows only its rank and size, so two
    different names would otherwise give one string.  Labels without name
    constants keep the plain repr of their key.
    """
    text = repr(key)
    # Spelling walks the whole key, so it is done only where a name
    # constant can occur.
    return repr(_spelled(key)) if "'nameref'" in text else text


def _spelled(x):
    if isinstance(x, tuple):
        return tuple(_spelled(y) for y in x)
    return x.key if isinstance(x, LambdaName) else x


def _label(v: ErasedProof) -> str:
    return label_key(canon(v))


@dataclass(frozen=True, eq=False, repr=False)
class LambdaName:
    """A finite set of (erased value, name) pairs, compared up to alpha.

    ``label`` spells each entry's label as its ``label_key``; an evaluator
    passes its own table of them.
    """

    entries: tuple[tuple[ErasedProof, "LambdaName"], ...]
    key: tuple = field(default=(), compare=False)
    label: InitVar[Callable[[ErasedProof], str] | None] = None

    def __post_init__(self, label) -> None:
        for v, member in self.entries:
            if not is_value(v):
                raise ValueError("name labels must be erased values")
            if not isinstance(member, LambdaName):
                raise ValueError("name members must be names")
        # Each label is keyed once, here; entries are stored in the sorted
        # order of their keys.
        label = label or _label
        seen = {}
        for v, member in self.entries:
            seen[(label(v), member.key)] = (v, member)
        keys = tuple(sorted(seen))
        object.__setattr__(self, "entries", tuple(seen[k] for k in keys))
        object.__setattr__(self, "key", ("name", keys))
        object.__setattr__(self, "_hash", hash(self.key))

    def __eq__(self, other) -> bool:
        return isinstance(other, LambdaName) and self._hash == other._hash and self.key == other.key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"<name:{self.rank()}:{len(self.entries)}>"

    def members(self) -> tuple["LambdaName", ...]:
        return tuple(dict.fromkeys(m for _, m in self.entries))

    def labels(self) -> dict[str, ErasedProof]:
        """The distinct labels in entry order, by label key."""
        out: dict[str, ErasedProof] = {}
        for (k, _), (v, _) in zip(self.key[1], self.entries):
            out.setdefault(k, v)
        return out

    def rank(self) -> int:
        return 1 + max((m.rank() for m in self.members()), default=0)

    def has_entry(self, label_key: str, member: "LambdaName") -> bool:
        """Whether an entry pairs a label keyed ``label_key`` (by the
        function of that name) with a member equal to ``member``."""
        return (label_key, member.key) in self.key[1]


EMPTY_NAME = LambdaName(())


def name_of(pairs) -> LambdaName:
    return LambdaName(tuple(pairs))


# ---------------------------------------------------------------------------
# Verdicts


@dataclass(frozen=True)
class Verdict:
    status: str  # "realizes" | "fails" | "unknown"
    reason: str = ""

    @property
    def realizes(self) -> bool:
        return self.status == "realizes"

    @property
    def fails(self) -> bool:
        return self.status == "fails"

    @property
    def unknown(self) -> bool:
        return self.status == "unknown"


REALIZES = Verdict("realizes")
FAILS = Verdict("fails")


def unknown(reason: str) -> Verdict:
    return Verdict("unknown", reason)


def _v_all(verdicts, truncated_pool: bool = False) -> Verdict:
    pending = None
    for v in verdicts:
        if v.fails:
            return v
        if v.unknown and pending is None:
            pending = v
    if pending is not None:
        return pending
    if truncated_pool:
        return unknown("universal position exhausted a truncated pool")
    return REALIZES


def _v_any(verdicts, truncated_pool: bool = False) -> Verdict:
    pending = None
    for v in verdicts:
        if v.realizes:
            return v
        if v.unknown and pending is None:
            pending = v
    if pending is not None:
        return pending
    if truncated_pool:
        return unknown("existential position exhausted a truncated pool")
    return FAILS


def _v_implies(hyp: Verdict, conclusion) -> Verdict:
    """conclusion is a thunk, evaluated only when the hypothesis may hold."""
    if hyp.fails:
        return REALIZES
    c = conclusion()
    if hyp.realizes:
        return c
    return REALIZES if c.realizes else unknown(hyp.reason or "hypothesis unknown")


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class RealizCfg:
    fuel: int = 10**4
    universe: tuple[LambdaName, ...] = (EMPTY_NAME,)
    realizers: tuple[ErasedProof, ...] = ()
    terms: tuple[Term, ...] = (Empty(),)
    truncated: bool = False
    omega_depth: int = 3
    power_cap: int = 6

    def __post_init__(self) -> None:
        if self.fuel <= 0 or not self.universe or not self.terms:
            raise ValueError("configuration pools must be non-empty, fuel positive")


# canonical building blocks ---------------------------------------------------


@lru_cache(maxsize=None)
def identity_value() -> ErasedProof:
    return ELamP("x", EPropVar("x"))


@lru_cache(maxsize=None)
def refl_value() -> ErasedProof:
    """The reflexivity realizer, unfolded once and instantiated: a value
    realizing A = A for every name A."""
    out = normalize(mk_eqRefl(), 100)
    assert out.is_value
    lam = out.result
    assert isinstance(lam, ELamF)
    inst = normalize(esubst_term(lam.body, lam.var, Empty()), 1000)
    assert inst.is_value
    return inst.result


def mem_wrap(label: ErasedProof) -> ErasedProof:
    """inRep([0, <label, refl>]): realizes A in B whenever (label, A) in B."""
    return EAxRep("in", EExIntro(Empty(), EPairP(label, refl_value())))


@lru_cache(maxsize=None)
def generator_labels() -> tuple[ErasedProof, ...]:
    i = identity_value()
    return (i, EInl(i), EInr(i), refl_value())


def default_realizer_pool() -> tuple[ErasedProof, ...]:
    """Eight stock hypothesis realizers covering the shapes the lemmas need."""
    i = identity_value()
    r = refl_value()
    mid = mem_wrap(i)
    return (
        i,
        EInl(i),
        EInr(i),
        r,
        mid,
        EPairP(mid, r),
        EPairP(r, r),
        mk_eqSymm(),
    )


def enumerate_names(depth: int, limit: int | None = None) -> tuple[LambdaName, ...]:
    """Deterministic name universe of the given depth.

    Depth 0 is just the empty name; each further level adds every singleton
    and doubleton of (generator label, previous-level name) pairs, smallest
    first, truncated to ``limit``.
    """
    labels = generator_labels()
    level: list[LambdaName] = [EMPTY_NAME]
    seen = {EMPTY_NAME.key}
    for _ in range(depth):
        pairs = [(v, m) for m in tuple(level) for v in labels]
        fresh: list[LambdaName] = []
        for v, m in pairs:
            cand = name_of(((v, m),))
            if cand.key not in seen:
                seen.add(cand.key)
                fresh.append(cand)
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                cand = name_of((pairs[i], pairs[j]))
                if cand.key not in seen:
                    seen.add(cand.key)
                    fresh.append(cand)
                if limit is not None and len(level) + len(fresh) >= 4 * limit:
                    break
            else:
                continue
            break
        level.extend(fresh)
        if limit is not None and len(level) >= 4 * limit:
            break
    out = tuple(level[:limit]) if limit is not None else tuple(level)
    return out


def default_cfg(
    depth: int = 2,
    fuel: int = 10**4,
    universe_size: int = 24,
    pool_size: int = 8,
    truncated: bool = False,
) -> RealizCfg:
    pool = default_realizer_pool()
    if pool_size < len(pool):
        pool = pool[:pool_size]
    return RealizCfg(
        fuel=fuel,
        universe=enumerate_names(depth, universe_size),
        realizers=pool,
        terms=(Empty(),),
        truncated=truncated,
    )


# ---------------------------------------------------------------------------
# The evaluator


_RUNNING = object()  # the verdict of a relation instance while it is being computed


class _Eval:
    """One query's evaluator.  Its tables die with it:

    * ``_ids``: the small int standing for each nameless key, so that the
      keys of the other tables hash in O(1);
    * ``_nodes``: each keyed node's int, by identity; an entry holds its
      node, so no other node takes its id while the query runs;
    * ``_norm``: each term's normal form, by key;
    * ``_inst``: each instantiation of a lambda's body, by the keys of the
      lambda and the argument;
    * ``_labels``: each label's ``label_key``, by key;
    * ``_rel``: each relation instance's verdict, ``_RUNNING`` while it is
      being computed;
    * ``_meaning``: each term's name under the names of its free variables,
      and omega's;
    * ``_pools``: each hypothesis pool, by the set of names it draws on.
    """

    def __init__(self, cfg: RealizCfg):
        self.cfg = cfg
        self._ids: dict[tuple, int] = {}
        self._nodes: dict[int, tuple[object, int]] = {}
        self._norm: dict[int, tuple[str, ErasedProof]] = {}
        self._inst: dict[tuple[int, int], ErasedProof] = {}
        self._labels: dict[int, str] = {}
        self._rel: dict[object, Verdict] = {}
        self._meaning: dict[object, LambdaName] = {}
        self._pools: dict[frozenset, tuple] = {}

    # -- keys, labels and instantiation, each computed once

    def key(self, x: ErasedProof | Term | Formula) -> int:
        """The int standing for x's canon key: equal iff alpha-equal."""
        hit = self._nodes.get(id(x))
        if hit is None:
            hit = self._nodes[id(x)] = (x, self._ids.setdefault(canon_key(x), len(self._ids)))
        return hit[1]

    def _syntax_key(self, x: Term | Formula, rho: dict[str, LambdaName]) -> tuple:
        """Memo key of a term or formula under an environment: its key plus
        the names bound to its free variables, so alpha-variants (schema
        bodies of separation and replacement terms included) share it."""
        return self.key(x), tuple((a, rho[a]) for a in sorted(free_vars(x)) if a in rho)

    def label(self, v: ErasedProof) -> str:
        """``label_key`` of v's canon key."""
        k = self.key(v)
        hit = self._labels.get(k)
        if hit is None:
            hit = self._labels[k] = label_key(canon_key(v))
        return hit

    def name(self, pairs) -> LambdaName:
        """``name_of(pairs)``, its labels keyed through ``label``."""
        return LambdaName(tuple(pairs), label=self.label)

    def instantiate(self, lam: ELamF | ELamP, arg: Term | ErasedProof) -> ErasedProof:
        """lam's body with arg (a term for an ``ELamF``, a proof for an
        ``ELamP``) for its variable."""
        k = (self.key(lam), self.key(arg))
        hit = self._inst.get(k)
        if hit is None:
            subst = esubst_term if isinstance(lam, ELamF) else esubst_prop
            hit = self._inst[k] = subst(lam.body, lam.var, arg)
        return hit

    # -- normalization with memo

    def norm(self, m: ErasedProof) -> tuple[str, ErasedProof]:
        key = self.key(m)
        hit = self._norm.get(key)
        if hit is None:
            out = normalize(m, self.cfg.fuel)
            hit = (out.status, out.result)
            self._norm[key] = hit
        return hit

    def _value_of(self, m: ErasedProof):
        status, v = self.norm(m)
        if status == "value":
            return v, None
        if status == "fuel":
            return None, unknown("fuel exhausted during normalization")
        return None, FAILS  # stuck terms do not normalize

    # -- relation memoization

    def _memo(self, key, compute) -> Verdict:
        rel = self._rel
        hit = rel.get(key)
        if hit is None:
            rel[key] = _RUNNING
            try:
                hit = compute()
            except BaseException:
                del rel[key]
                raise
            rel[key] = hit
        elif hit is _RUNNING:
            return unknown("self-referential relation instance")
        return hit

    # -- atomic relations

    def mem_i(self, m: ErasedProof, a: LambdaName, b: LambdaName) -> Verdict:
        return self._memo(("memi", self.key(m), a, b), lambda: self._mem_i(m, a, b))

    def _mem_i(self, m: ErasedProof, a: LambdaName, b: LambdaName) -> Verdict:
        v, err = self._value_of(m)
        if err is not None:
            return err
        if b.has_entry(self.label(v), a):
            return REALIZES
        if b == self.omega_name():
            # The omega name is inductively defined: arbitrary labels are
            # admitted whenever the base or successor clause accepts them,
            # not only the canonical entries listed in the approximation.
            return self._omega_entry(v, a)
        return FAILS

    def _omega_entry(self, v: ErasedProof, a: LambdaName) -> Verdict:
        key = ("omega-entry", self.key(v), a)
        return self._memo(key, lambda: self._omega_entry_raw(v, a))

    def _omega_entry_raw(self, v: ErasedProof, a: LambdaName) -> Verdict:
        omega = self.omega_name()
        candidates = dict.fromkeys((*omega.members(), a, *a.members(), *self.cfg.universe))
        return self._omega_clause(v, a, omega, candidates)

    def _omega_clause(
        self, v: ErasedProof, a: LambdaName, approx: LambdaName, candidates
    ) -> Verdict:
        """Whether the entry (v, a) meets omega's base or successor clause.

        The base clause wants an inl whose payload realizes equality with
        zero; the successor clause wants an inr packaging a membership of
        some candidate b in ``approx`` together with an equality of a to
        the successor of b.
        """
        if not (isinstance(v, EAxRep) and v.family == "inf"):
            return FAILS
        nv, err = self._value_of(v.arg)
        if err is not None:
            return err
        if isinstance(nv, EInl):
            return self.eq(nv.body, a, EMPTY_NAME)
        if not isinstance(nv, EInr):
            return FAILS
        ex, err = self._value_of(nv.body)
        if err is not None:
            return err
        if not isinstance(ex, EExIntro):
            return FAILS
        pair, err = self._value_of(ex.body)
        if err is not None:
            return err
        if not isinstance(pair, EPairP):
            return FAILS

        def for_b(b: LambdaName) -> Verdict:
            member = self.mem(pair.left, b, approx)
            if member.fails:
                return member
            succ = self.meaning(succ_term(NameRef(b)), {})
            return _v_all([member, self.eq(pair.right, a, succ)])

        return _v_any(for_b(b) for b in candidates)

    def mem(self, m: ErasedProof, a: LambdaName, b: LambdaName) -> Verdict:
        return self._memo(("mem", self.key(m), a, b), lambda: self._mem(m, a, b))

    def _mem(self, m: ErasedProof, a: LambdaName, b: LambdaName) -> Verdict:
        v, err = self._value_of(m)
        if err is not None:
            return err
        if not (isinstance(v, EAxRep) and v.family == "in"):
            return FAILS
        ex, err = self._value_of(v.arg)
        if err is not None:
            return err
        if not isinstance(ex, EExIntro):
            return FAILS
        pair, err = self._value_of(ex.body)
        if err is not None:
            return err
        if not isinstance(pair, EPairP):
            return FAILS
        candidates = dict.fromkeys((*b.members(), a, *a.members(), *self.cfg.universe))

        def check_c(c: LambdaName) -> Verdict:
            first = self.mem_i(pair.left, c, b)
            if first.fails:
                return first
            second = self.eq(pair.right, a, c)
            return _v_all([first, second])

        # Membership witnesses must label an entry of b, so the sweep over
        # b's member names is exhaustive for literal entries; the subject
        # and its members are added for the clause-extended omega name.
        return _v_any(check_c(c) for c in candidates)

    def eq(self, m: ErasedProof, a: LambdaName, b: LambdaName) -> Verdict:
        return self._memo(("eq", self.key(m), a, b), lambda: self._eq(m, a, b))

    def _eq(self, m: ErasedProof, a: LambdaName, b: LambdaName) -> Verdict:
        v, err = self._value_of(m)
        if err is not None:
            return err
        if not (isinstance(v, EAxRep) and v.family == "eq"):
            return FAILS
        m0, err = self._value_of(v.arg)
        if err is not None:
            return err
        if not isinstance(m0, ELamF):
            return FAILS

        def per_term(t: Term) -> Verdict:
            pair, err = self._value_of(self.instantiate(m0, t))
            if err is not None:
                return err
            if not isinstance(pair, EPairP):
                return FAILS
            o, err = self._value_of(pair.left)
            if err is not None:
                return err
            p, err = self._value_of(pair.right)
            if err is not None:
                return err
            if not isinstance(o, ELamP) or not isinstance(p, ELamP):
                return FAILS
            # Only member names of a or b can have realizable intensional
            # membership hypotheses, so this sweep is exhaustive.
            dpool = dict.fromkeys((*a.members(), *b.members()))

            def direction(lam: ELamP, src: LambdaName, dst: LambdaName, d: LambdaName) -> Verdict:
                pool = self._hyp_pool((src, dst))
                return _v_all(
                    (
                        _v_implies(
                            self.mem_i(n, d, src),
                            lambda n=n: self.mem(self.instantiate(lam, n), d, dst),
                        )
                        for n in pool
                    ),
                    truncated_pool=self.cfg.truncated,
                )

            return _v_all(
                _v_all([direction(o, a, b, d), direction(p, b, a, d)]) for d in dpool
            )

        return _v_all((per_term(t) for t in self.cfg.terms), truncated_pool=self.cfg.truncated)

    def _hyp_pool(self, names: tuple[LambdaName, ...]) -> tuple[ErasedProof, ...]:
        cache_key = frozenset(names)
        hit = self._pools.get(cache_key)
        if hit is not None:
            return hit
        out = list(self.cfg.realizers)
        seen = {self.label(x) for x in out}
        for nm in names:
            for k, lab in nm.labels().items():
                if k not in seen:
                    seen.add(k)
                    out.append(lab)
        pool = tuple(out)
        self._pools[cache_key] = pool
        return pool

    # -- term meanings

    def meaning(self, t: Term, rho: dict[str, LambdaName]) -> LambdaName:
        key = ("t", self._syntax_key(t, rho))
        hit = self._meaning.get(key)
        if hit is None:
            hit = self._meaning_of(t, rho)
            self._meaning[key] = hit
        return hit

    def _meaning_of(self, t: Term, rho: dict[str, LambdaName]) -> LambdaName:
        match t:
            case Var(a):
                if a not in rho:
                    raise UnsupportedFormulaError(f"unbound variable {a} in realizability")
                return rho[a]
            case NameRef(payload):
                if not isinstance(payload, LambdaName):
                    raise UnsupportedFormulaError("foreign name constant")
                return payload
            case Empty():
                return EMPTY_NAME
            case Omega():
                return self.omega_name()
            case Inac() | NwfConst():
                raise UnsupportedFormulaError(f"no desk-scale meaning for {t!r}")
            case PairT(l, r):
                al, ar = self.meaning(l, rho), self.meaning(r, rho)
                rv = refl_value()
                return self.name(
                    ((EAxRep("pair", EInl(rv)), al), (EAxRep("pair", EInr(rv)), ar))
                )
            case UnionT(u):
                un = self.meaning(u, rho)
                entries = []
                for v1, w in un.entries:
                    for v2, c in w.entries:
                        witness = EExIntro(
                            Empty(), EPairP(mem_wrap(v1), mem_wrap(v2))
                        )
                        entries.append((EAxRep("union", witness), c))
                return self.name(entries)
            case PowerT(u):
                un = self.meaning(u, rho)
                base = un.entries[: self.cfg.power_cap]
                subsets = [()]
                for e in base:
                    subsets += [s + (e,) for s in subsets]
                entries = []
                for s in subsets:
                    sub = self.name(s)
                    # Any membership proof for the subset is one for the
                    # carrier verbatim, so identity realizes the inclusion.
                    witness = ELamF("a", ELamP("x", EPropVar("x")))
                    entries.append((EAxRep("power", witness), sub))
                return self.name(entries)
            case Sep(z, ps, body, carrier, args):
                un = self.meaning(carrier, rho)
                argnames = tuple(self.meaning(u, rho) for u in args)
                entries = []
                for v1, c in un.entries:
                    inner_rho = dict(rho)
                    inner_rho[z] = c
                    inner_rho.update(zip(ps, argnames))
                    for w in self.cfg.realizers + (refl_value(),):
                        if self.reals(w, body, inner_rho).realizes:
                            entries.append(
                                (EAxRep("sep", EPairP(mem_wrap(v1), w)), c)
                            )
                            break
                return self.name(entries)
            case Repl():
                # Pool-searched; replacement meanings are usually empty at
                # desk scale and that is acceptable for the tests they back.
                return EMPTY_NAME
        raise UnsupportedFormulaError(f"no meaning for term {t!r}")

    def omega_name(self) -> LambdaName:
        key = ("omega", self.cfg.omega_depth)
        hit = self._meaning.get(key)
        if hit is not None:
            return hit
        rv = refl_value()
        entries: list[tuple[ErasedProof, LambdaName]] = []
        numeral_name = EMPTY_NAME
        label = EAxRep("inf", EInl(rv))
        entries.append((label, numeral_name))
        for _ in range(self.cfg.omega_depth - 1):
            succ = self.meaning(succ_term(NameRef(numeral_name)), {})
            witness = EExIntro(Empty(), EPairP(mem_wrap(label), rv))
            label = EAxRep("inf", EInr(witness))
            numeral_name = succ
            entries.append((label, numeral_name))
        out = self.name(entries)
        self._meaning[key] = out
        return out

    # -- the realizability relation proper

    def reals(self, m: ErasedProof, phi: Formula, rho: dict[str, LambdaName]) -> Verdict:
        key = ("reals", self.key(m), self._syntax_key(phi, rho))
        return self._memo(key, lambda: self._reals(m, phi, rho))

    def _reals(self, m: ErasedProof, phi: Formula, rho: dict[str, LambdaName]) -> Verdict:
        match phi:
            case Bottom():
                return FAILS
            case MemI(l, r):
                return self.mem_i(m, self.meaning(l, rho), self.meaning(r, rho))
            case Mem(l, r):
                return self.mem(m, self.meaning(l, rho), self.meaning(r, rho))
            case Eq(l, r):
                return self.eq(m, self.meaning(l, rho), self.meaning(r, rho))
            case And(l, r):
                v, err = self._value_of(m)
                if err is not None:
                    return err
                if not isinstance(v, EPairP):
                    return FAILS
                return _v_all([self.reals(v.left, l, rho), self.reals(v.right, r, rho)])
            case Or(l, r):
                v, err = self._value_of(m)
                if err is not None:
                    return err
                if isinstance(v, EInl):
                    return self.reals(v.body, l, rho)
                if isinstance(v, EInr):
                    return self.reals(v.body, r, rho)
                return FAILS
            case Imp(l, r):
                v, err = self._value_of(m)
                if err is not None:
                    return err
                if not isinstance(v, ELamP):
                    return FAILS
                pool = self._hyp_pool(tuple(rho.values()))
                return _v_all(
                    (
                        _v_implies(
                            self.reals(n, l, rho),
                            lambda n=n: self.reals(self.instantiate(v, n), r, rho),
                        )
                        for n in pool
                    ),
                    truncated_pool=self.cfg.truncated,
                )
            case Forall(a, body):
                v, err = self._value_of(m)
                if err is not None:
                    return err
                if not isinstance(v, ELamF):
                    return FAILS

                def inst(nm: LambdaName, t: Term) -> Verdict:
                    rho2 = dict(rho)
                    rho2[a] = nm
                    return self.reals(self.instantiate(v, t), body, rho2)

                return _v_all(
                    (inst(nm, t) for nm in self.cfg.universe for t in self.cfg.terms),
                    truncated_pool=self.cfg.truncated,
                )
            case Exists(a, body):
                v, err = self._value_of(m)
                if err is not None:
                    return err
                if not isinstance(v, EExIntro):
                    return FAILS

                def inst(nm: LambdaName) -> Verdict:
                    rho2 = dict(rho)
                    rho2[a] = nm
                    return self.reals(v.body, body, rho2)

                return _v_any(
                    (inst(nm) for nm in self._exists_pool(rho)),
                    truncated_pool=self.cfg.truncated,
                )
        raise UnsupportedFormulaError(f"no clause for {phi!r}")

    def _exists_pool(self, rho: dict[str, LambdaName]) -> tuple[LambdaName, ...]:
        out = list(self.cfg.universe)
        seen = {n.key for n in out}
        for nm in rho.values():
            for cand in (nm, *nm.members()):
                if cand.key not in seen:
                    seen.add(cand.key)
                    out.append(cand)
        return tuple(out)


def _reject_inac(phi: Formula) -> None:
    """Checked once per public query: every formula the evaluator meets,
    separation bodies included, is a sub-tree of the query's.  The walk
    keeps its own work list, so a deep formula takes no stack."""
    todo = [phi]

    def push(x: Term | Formula) -> Term | Formula:
        todo.append(x)
        return x

    while todo:
        x = todo.pop()
        if isinstance(x, Inac):
            raise UnsupportedFormulaError("inaccessible constants are outside the finite model")
        map_children(x, push)


# ---------------------------------------------------------------------------
# Public operations


def reals_mem_i(m: ErasedProof, a: LambdaName, b: LambdaName, fuel: int = 10**4) -> Verdict:
    ev = _Eval(RealizCfg(fuel=fuel))
    return ev.mem_i(m, a, b)


def reals_mem(m: ErasedProof, a: LambdaName, b: LambdaName, cfg: RealizCfg) -> Verdict:
    return _Eval(cfg).mem(m, a, b)


def reals_eq(m: ErasedProof, a: LambdaName, b: LambdaName, cfg: RealizCfg) -> Verdict:
    return _Eval(cfg).eq(m, a, b)


def reals(
    m: ErasedProof,
    phi: Formula,
    rho: dict[str, LambdaName] | None = None,
    cfg: RealizCfg | None = None,
) -> Verdict:
    cfg = cfg if cfg is not None else default_cfg()
    _reject_inac(phi)
    return _Eval(cfg).reals(m, phi, dict(rho or {}))


def omega_prime_member(
    entry: tuple[ErasedProof, LambdaName],
    approx: LambdaName,
    fuel: int = 10**4,
) -> Verdict:
    """Check one candidate entry against omega's base or successor clause,
    with ``approx`` as the approximation the successor clause looks into."""
    label, a = entry
    dedup = dict.fromkeys((EMPTY_NAME, a, approx, *approx.members(), *a.members()))
    pool = default_realizer_pool()
    cfg = RealizCfg(fuel=fuel, universe=tuple(dedup), realizers=pool, terms=(Empty(),))
    return _Eval(cfg)._omega_clause(label, a, approx, (*approx.members(), *dedup))
