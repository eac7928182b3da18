"""Desk-scale realizability: names, the atomic relations, and the clauses.

Names are hereditarily finite sets of (erased value, name) pairs with
alpha-aware set semantics.  The realizability relation follows the clause
definitions literally, with two finite surrogates for the class-sized
quantifiers: candidate member names come from the names embedded in the
relevant sets (which is exhaustive for the intensional conjuncts), while
hypothesis realizers come from a configured pool, which is a genuine
truncation, and a realizer of a first-order quantifier or of an equality
is instantiated at the one term ``INSTANCE_TERM``.  With ``truncated=False`` the pools are
treated as exhaustive and every verdict is decisive; with ``truncated=True``
a universally quantified pool position that merely survives its pool
reports Unknown instead.  Fuel exhaustion always reports Unknown.

A configuration is one model: its first query builds an evaluator,
``_Eval``, which every later query on it reuses, so each table whose
entries depend on their keys alone dies with the configuration.  Verdicts
stay per query, as do the term meanings of a query with a separation,
which read verdicts: a verdict read off a running instance depends on
where the query entered the cycle.  omega's name is built once per
process.  A query compiles its formula, separation bodies included, into
one node per subformula: its int key, the slots of its free variables in
the environment, and a closure for its paper clause (⊥, ∈ᵢ, ∈, =, ∧, ∨, →,
∀, ∃) over its compiled children; terms compile likewise.  An environment
is a tuple of name ids, so a relation instance is keyed by ints alone, and
each key, name id, normal form, instantiation, label and pool is made once
per configuration, each verdict once per query.  A memo hit
is one dictionary read, with no closure.  A clause sweeps its pool in a
plain loop, in pool order: a universal sweep stops at its first failure,
an existential one at its first realizer, and each reports the first
unknown it met; ∧ evaluates both conjuncts, and → its conclusion only where
the hypothesis does not fail.  Only ``REALIZES`` and ``FAILS`` carry those
two statuses, so verdicts compare by identity.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import itemgetter
from typing import Callable

from .proof_ops import canon, canon_key, esubst_prop, esubst_term
from .proofs import (
    CANONICAL,
    TWINS,
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
    record,
    succ_term,
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


@record()
class LambdaName:
    """A finite set of (erased value, name) pairs, compared up to alpha.

    ``label`` spells each entry's label as its ``label_key``; an evaluator
    passes its own table of them.
    """

    entries: tuple[tuple[ErasedProof, "LambdaName"], ...]
    key: tuple  # computed from the entries

    def __init__(self, entries, label: Callable[[ErasedProof], str] | None = None) -> None:
        for v, member in entries:
            if not is_value(v):
                raise ValueError("name labels must be erased values")
            if not isinstance(member, LambdaName):
                raise ValueError("name members must be names")
        # Each label is keyed once, here; entries are stored in the sorted
        # order of their keys.
        label = label or _label
        seen = {(label(v), member.key): (v, member) for v, member in entries}
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


EMPTY_NAME = LambdaName(())


def name_of(pairs) -> LambdaName:
    return LambdaName(tuple(pairs))


# ---------------------------------------------------------------------------
# Verdicts


@record()
class Verdict:
    """A verdict.  Only the module constants ``REALIZES`` and ``FAILS``
    carry those two statuses (``unknown`` makes every other verdict), so a
    verdict is compared by identity: ``v is FAILS``."""

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


def _both(x: Verdict, y: Verdict) -> Verdict:
    """x and y: ``FAILS`` if either fails, else the first unknown of them."""
    if x is FAILS or y is FAILS:
        return FAILS
    return y if x is REALIZES else x


# ---------------------------------------------------------------------------
# Configuration

OMEGA_DEPTH = 3  # omega's name holds this many numerals
POWER_CAP = 6  # a power set's name holds the subsets of this many members
INSTANCE_TERM = Empty()  # the term a first-order abstraction is instantiated at


@record()
class RealizCfg:
    fuel: int = 10**4
    universe: tuple[LambdaName, ...] = (EMPTY_NAME,)
    realizers: tuple[ErasedProof, ...] = ()
    truncated: bool = False

    def __post_init__(self) -> None:
        if self.fuel <= 0 or not self.universe:
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
    i, r = identity_value(), refl_value()
    mid = mem_wrap(i)
    return (i, EInl(i), EInr(i), r, mid, EPairP(mid, r), EPairP(r, r), mk_eqSymm())


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
        for p, q in combinations(pairs, 2):
            cand = name_of((p, q))
            if cand.key not in seen:
                seen.add(cand.key)
                fresh.append(cand)
            if limit is not None and len(level) + len(fresh) >= 4 * limit:
                break
        level.extend(fresh)
        if limit is not None and len(level) >= 4 * limit:
            break
    return tuple(level[:limit]) if limit is not None else tuple(level)


def default_cfg(
    depth: int = 2,
    fuel: int = 10**4,
    universe_size: int = 24,
    pool_size: int = 8,
    truncated: bool = False,
) -> RealizCfg:
    pool = default_realizer_pool()[:pool_size]
    universe = enumerate_names(depth, universe_size)
    return RealizCfg(fuel=fuel, universe=universe, realizers=pool, truncated=truncated)


# ---------------------------------------------------------------------------
# The evaluator


_RUNNING = unknown("self-referential relation instance")  # an instance's verdict while it is computed
# The value shapes of the connectives' clauses, erased from ``CANONICAL``; the atoms
# and absurdity have none, and the atoms unpack their subjects through these.
_HEADS = {phi: tuple(TWINS[c] for c in CANONICAL[phi]) for phi in (And, Or, Imp, Forall, Exists)}
_AND, _OR, _IMP, _FORALL, _EXISTS = map(_HEADS.__getitem__, (And, Or, Imp, Forall, Exists))


def _bind(scope: tuple, names) -> tuple[tuple, tuple[int, ...]]:
    """The scope after binding ``names`` in order as a dict would (a name
    already in scope keeps its slot, a new one goes last), and their slots."""
    out = list(scope)
    for a in names:
        if a not in out:
            out.append(a)
    return tuple(out), tuple(out.index(a) for a in names)


def _extend(env: tuple, slots: tuple[int, ...], ids) -> tuple:
    """env with the name ids ``ids`` in ``slots`` (one past the end appends)."""
    out = list(env)
    for p, n in zip(slots, ids):
        out[p : p + 1] = (n,)
    return tuple(out)


def _picker(x: Term | Formula, scope: tuple) -> Callable[[tuple], object]:
    """Reads the ids in the slots of x's free variables, in sorted order,
    off an environment of ``scope``; a variable out of scope reads slot 0."""
    slots = tuple(scope.index(a) if a in scope else 0 for a in sorted(free_vars(x)))
    return itemgetter(*slots) if slots else lambda env: ()


class _Node:
    """One compiled subformula: its int key, ``pick`` (the name ids in its
    free variables' slots), ``head`` (the value shape its clause wants, or
    None) and ``clause``, the closure for its paper clause over its compiled
    children, which ``build`` makes when the node is first evaluated."""

    __slots__ = ("key", "pick", "head", "clause", "build")


class _Eval:
    """One configuration's evaluator, kept on it as ``_model``.  Its tables
    live with it (omega's name, which ``omega`` interns once, is the process
    constant ``omega_name()``), but for the per-query ones ``begin`` makes:

    * ``_ids``: the int standing for each nameless key; ``_nodes``: each
      keyed node's entry, by identity: the node (so no other node takes its
      id while the model lives) and its int, then, once the node has been
      normalized as a subject, its value and why it has none;
    * ``_name_ids``/``_names``: each name's int id, by key, and back (a name
      is hashed once, when interned); ``_facts``: each id's member ids and
      its entries as (label key, member id) pairs;
    * ``_norm``: each term's value or why it has none, by key; ``_inst``:
      each instantiation of a lambda's body, by the keys of lambda and
      argument; ``_labels``: each ``label_key``; ``_meaning``: each compound
      term's name id, by its key and slot ids; ``_pools``: each hypothesis
      pool, by head and name ids; ``_dpools``: each ``_direction_pool``;
    * per query, ``_rel``: each relation instance's verdict, ``_RUNNING``
      while it is computed, read inline on a hit; a formula's is keyed by
      (its key, the subject's key, the ids in its slots); ``_terms``: the
      meanings a query uses, ``_meaning`` or, for a query with a separation
      in it (whose meaning reads verdicts), a fresh table; ``_compiled``:
      each formula's ``_Node`` and each term's function from an environment
      to its name id, by identity and scope.

    A scope lists the variables bound at a node in the order a dict would,
    after ``None`` in slot 0; an environment, their name ids after -1.
    """

    def __init__(self, cfg: RealizCfg):
        self.fuel, self.realizers = cfg.fuel, cfg.realizers
        self._ids, self._nodes, self._name_ids, self._meaning = {}, {}, {}, {}
        self._names, self._facts = [], []
        self._norm, self._inst, self._labels, self._pools, self._dpools = {}, {}, {}, {}, {}
        self.begin()
        # what a universal (existential) sweep that met no deciding verdict and no unknown reports
        self._swept = unknown("universal position exhausted a truncated pool") if cfg.truncated else REALIZES
        self._unmet = unknown("existential position exhausted a truncated pool") if cfg.truncated else FAILS
        self._universe = tuple(map(self.nid, cfg.universe))
        self._empty = self.nid(EMPTY_NAME)
        self._omega = self._succ = None

    def begin(self, private: bool = False) -> None:
        self._rel, self._compiled = {}, {}
        self._terms = {} if private else self._meaning

    # -- keys, name ids, labels, values and instantiation, each computed once

    def key(self, x: ErasedProof | Term | Formula) -> int:
        """The int standing for x's canon key: equal iff alpha-equal."""
        hit = self._nodes.get(id(x))
        if hit is None:
            hit = self._nodes[id(x)] = (x, self._ids.setdefault(canon_key(x), len(self._ids)))
        return hit[1]

    def nid(self, nm: LambdaName) -> int:
        """The int standing for nm: equal iff equal names."""
        hit = self._name_ids.get(nm)
        if hit is None:
            hit = self._name_ids[nm] = len(self._names)
            self._names.append(nm)
            self._facts.append(None)
        return hit

    def _name_facts(self, n: int) -> tuple[tuple[int, ...], frozenset]:
        hit = self._facts[n]
        if hit is None:
            nm = self._names[n]
            ms = tuple(self.nid(m) for _, m in nm.entries)
            hit = self._facts[n] = (tuple(dict.fromkeys(ms)), frozenset(zip((k for k, _ in nm.key[1]), ms)))
        return hit

    def members(self, n: int) -> tuple[int, ...]:
        return self._name_facts(n)[0]

    def label(self, v: ErasedProof) -> str:
        """``label_key`` of v's canon key."""
        k = self.key(v)
        hit = self._labels.get(k)
        if hit is None:
            hit = self._labels[k] = label_key(canon_key(v))
        return hit

    def name(self, pairs) -> int:
        """The id of ``name_of(pairs)``, its labels keyed through ``label``."""
        return self.nid(LambdaName(tuple(pairs), label=self.label))

    def instantiate(self, lam: ELamF | ELamP, arg: Term | ErasedProof) -> ErasedProof:
        """lam's body with arg (a term for an ``ELamF``, a proof for an
        ``ELamP``) for its variable."""
        k = (self.key(lam), self.key(arg))
        hit = self._inst.get(k)
        if hit is None:
            subst = esubst_term if isinstance(lam, ELamF) else esubst_prop
            hit = self._inst[k] = subst(lam.body, lam.var, arg)
        return hit

    def _value_of(self, m: ErasedProof) -> tuple[ErasedProof, int, ErasedProof | None, Verdict | None]:
        """m's entry in ``_nodes`` with its value: m, its key, then its
        value, or None and why not (unknown out of fuel, ``FAILS`` if stuck)."""
        hit = self._nodes.get(id(m))
        if hit is None or len(hit) == 2:
            key = self.key(m)
            norm = self._norm.get(key)
            if norm is None:
                out = normalize(m, self.fuel)
                why = unknown("fuel exhausted during normalization") if out.status == "fuel" else FAILS
                norm = self._norm[key] = (out.result, None) if out.is_value else (None, why)
            hit = self._nodes[id(m)] = (m, key, *norm)
        return hit

    def _as(self, m: ErasedProof, head, family: str | None = None):
        """m's value if it is a ``head`` (of ``family``, for an axiom
        value), else None and why not: ``FAILS`` for any other value."""
        _, _, v, err = self._value_of(m)
        if err is None and not (isinstance(v, head) and (family is None or v.family == family)):
            return None, FAILS
        return v, err

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
        return hit

    # -- atomic relations, over name ids

    def mem_i(self, m: ErasedProof, a: int, b: int) -> Verdict:
        hit = self._rel.get(key := ("memi", self.key(m), a, b))
        return self._memo(key, lambda: self._mem_i(m, a, b)) if hit is None else hit

    def _mem_i(self, m: ErasedProof, a: int, b: int) -> Verdict:
        _, _, v, err = self._value_of(m)
        if err is not None:
            return err
        if (self.label(v), a) in self._name_facts(b)[1]:
            return REALIZES
        if b == self.omega():
            # The omega name is inductively defined: arbitrary labels are
            # admitted whenever the base or successor clause accepts them,
            # not only the canonical entries listed in the approximation.
            return self._memo(("omega-entry", self.key(v), a), lambda: self._omega_clause(v, a))
        return FAILS

    def _omega_clause(self, v: ErasedProof, a: int) -> Verdict:
        """Whether the entry (v, a) meets omega's base clause (an inl whose
        payload realizes equality with zero) or its successor clause (an inr
        packaging a membership of some candidate b, as in ``_mem``, in
        omega's name with an equality of a to the successor of b)."""
        if not (isinstance(v, EAxRep) and v.family == "inf"):
            return FAILS
        nv, err = self._as(v.arg, _OR)
        if isinstance(nv, EInl):
            return self.eq(nv.body, a, self._empty)
        if err is None:
            ex, err = self._as(nv.body, _EXISTS)
        if err is None:
            pair, err = self._as(ex.body, _AND)
        if err is not None:
            return err
        return self._witnessed(self.mem, pair, a, self.omega(), self.succ)

    def mem(self, m: ErasedProof, a: int, b: int) -> Verdict:
        hit = self._rel.get(key := ("mem", self.key(m), a, b))
        return self._memo(key, lambda: self._mem(m, a, b)) if hit is None else hit

    def _mem(self, m: ErasedProof, a: int, b: int) -> Verdict:
        v, err = self._as(m, EAxRep, "in")
        if err is None:
            ex, err = self._as(v.arg, _EXISTS)
        if err is None:
            pair, err = self._as(ex.body, _AND)
        if err is not None:
            return err
        return self._witnessed(self.mem_i, pair, a, b)

    def _witnessed(self, rel, pair: EPairP, a: int, b: int, step=None) -> Verdict:
        """Whether, for some candidate c, pair's left realizes ``rel`` at
        (c, b) and its right realizes a = c (a = step(c), with a ``step``).
        Membership witnesses must label an entry of b, so the candidates,
        b's member names, are exhaustive for literal entries; the subject
        and its members are added for the clause-extended omega name."""
        pending = None
        for c in dict.fromkeys((*self.members(b), a, *self.members(a), *self._universe)):
            got = rel(pair.left, c, b)
            if got is not FAILS:
                got = _both(got, self.eq(pair.right, a, c if step is None else step(c)))
                if got is REALIZES:
                    return REALIZES
                if pending is None and got is not FAILS:
                    pending = got
        return FAILS if pending is None else pending

    def eq(self, m: ErasedProof, a: int, b: int) -> Verdict:
        hit = self._rel.get(key := ("eq", self.key(m), a, b))
        return self._memo(key, lambda: self._eq(m, a, b)) if hit is None else hit

    def _eq(self, m: ErasedProof, a: int, b: int) -> Verdict:
        v, err = self._as(m, EAxRep, "eq")
        if err is None:
            m0, err = self._as(v.arg, _FORALL)
        if err is not None:
            return err
        pair, err = self._as(self.instantiate(m0, INSTANCE_TERM), _AND)
        if err is None:
            _, _, o, err = self._value_of(pair.left)
        if err is None:
            _, _, p, err = self._value_of(pair.right)
        if err is None and not (isinstance(o, _IMP) and isinstance(p, _IMP)):
            err = FAILS
        if err is not None:
            return err
        # One sweep over each member name d of a or b (only those can have
        # realizable intensional membership hypotheses, so it is
        # exhaustive), evaluating both directions at each d.
        pending = None
        for d in dict.fromkeys((*self.members(a), *self.members(b))):
            got = _both(self._direction(o, a, b, d), self._direction(p, b, a, d))
            if got is FAILS:
                return FAILS
            if pending is None and got is not REALIZES:
                pending = got
        return self._swept if pending is None else pending

    def _direction(self, lam: ELamP, src: int, dst: int, d: int) -> Verdict:
        """Whether every hypothesis realizer n of d ∈ᵢ src makes lam's body
        at n realize d ∈ dst; n runs over ``_direction_pool``."""
        pending = None
        for n in self._direction_pool(src, dst, d):
            hyp = self.mem_i(n, d, src)
            if hyp is FAILS:
                continue
            got = self.mem(self.instantiate(lam, n), d, dst)
            if hyp is not REALIZES and got is not REALIZES:
                got = unknown(hyp.reason or "hypothesis unknown")
            if got is FAILS:
                return FAILS
            if pending is None and got is not REALIZES:
                pending = got
        return self._swept if pending is None else pending

    def _direction_pool(self, src: int, dst: int, d: int) -> tuple[ErasedProof, ...]:
        """The realizers of ``_hyp_pool`` for which d ∈ᵢ src may hold: those
        without a value for want of fuel and those whose label is an entry
        of src at d, or all of them when src is omega (as ``_mem_i``)."""
        hit = self._dpools.get(k := (src, dst, d))
        if hit is None:
            entries, keep = self._name_facts(src)[1], []
            for n in self._hyp_pool((src, dst)):
                _, _, v, err = self._value_of(n)
                if err is not FAILS and (err is not None or (self.label(v), d) in entries or src == self.omega()):
                    keep.append(n)
            hit = self._dpools[k] = tuple(keep)
        return hit

    def _hyp_pool(self, names: tuple[int, ...], head=None) -> tuple[ErasedProof, ...]:
        """The configured realizers, then each further label of the names;
        with a ``head``, only those whose value may have that shape."""
        hit = self._pools.get(cache_key := (head, frozenset(names)))
        if hit is None and head is not None:
            hit = tuple(n for n in self._hyp_pool(names) if self._as(n, head)[1] is not FAILS)
        elif hit is None:
            out = list(self.realizers)
            seen = {self.label(x) for x in out}
            for n in names:
                for k, lab in self._names[n].labels().items():
                    if k not in seen:
                        seen.add(k)
                        out.append(lab)
            hit = tuple(out)
        self._pools[cache_key] = hit
        return hit

    def _exists_pool(self, env: tuple) -> tuple[int, ...]:
        """The universe, then each further name of env and its members."""
        return tuple(dict.fromkeys((*self._universe, *(c for n in env[1:] for c in (n, *self.members(n))))))

    # -- term meanings

    def meaning(self, t: Term, rho: dict[str, LambdaName]) -> LambdaName:
        scope, env = self._root(rho)
        return self._names[self._term(t, scope)(env)]

    def _root(self, rho: dict[str, LambdaName]) -> tuple[tuple, tuple]:
        return (None, *rho), (-1, *map(self.nid, rho.values()))

    def _term(self, t: Term, scope: tuple) -> Callable[[tuple], int]:
        """t compiled under ``scope``: from an environment to its name's id."""
        hit = self._compiled.get((id(t), scope))
        if hit is not None:
            return hit[1]
        build = self._term_clause(t, scope)
        if isinstance(t, (PairT, UnionT, PowerT, Sep)):
            key, pick, build_raw = self.key(t), _picker(t, scope), build

            def build(env: tuple) -> int:
                k, table = (key, pick(env)), self._terms
                hit = table.get(k)
                if hit is None:
                    hit = table[k] = build_raw(env)
                return hit

        self._compiled[(id(t), scope)] = (t, build)
        return build

    def _term_clause(self, t: Term, scope: tuple) -> Callable[[tuple], int]:
        names, rv = self._names, refl_value()
        match t:
            case Var(a):
                slot = scope.index(a) if a in scope else 0

                def var(env: tuple) -> int:
                    if env[slot] < 0:
                        raise UnsupportedFormulaError(f"unbound variable {a} in realizability")
                    return env[slot]

                return var
            case NameRef(payload) if isinstance(payload, LambdaName):
                n = self.nid(payload)
                return lambda env: n
            case Empty() | Repl():
                # Replacement is pool-searched; its meanings are usually empty
                # at desk scale and that is acceptable for the tests they back.
                return lambda env: self._empty
            case Omega():
                return lambda env: self.omega()
            case PairT(l, r):
                tl, tr = self._term(l, scope), self._term(r, scope)
                return lambda env: self.name(
                    ((EAxRep("pair", EInl(rv)), names[tl(env)]), (EAxRep("pair", EInr(rv)), names[tr(env)]))
                )
            case UnionT(u):
                tu = self._term(u, scope)
                return lambda env: self.name(
                    (EAxRep("union", EExIntro(Empty(), EPairP(mem_wrap(v1), mem_wrap(v2)))), c)
                    for v1, w in names[tu(env)].entries
                    for v2, c in w.entries
                )
            case PowerT(u):
                tu = self._term(u, scope)
                # Any membership proof for the subset is one for the carrier
                # verbatim, so identity realizes the inclusion.
                witness = ELamF("a", ELamP("x", EPropVar("x")))

                def power(env: tuple) -> int:
                    subsets = [()]
                    for e in names[tu(env)].entries[:POWER_CAP]:
                        subsets += [s + (e,) for s in subsets]
                    return self.name((EAxRep("power", witness), names[self.name(s)]) for s in subsets)

                return power
            case Sep(z, ps, body, carrier, args):
                tc, targs = self._term(carrier, scope), tuple(self._term(u, scope) for u in args)
                inner, slots = _bind(scope, (z, *ps[: len(args)]))
                cb = self._formula(body, inner)

                def sep(env: tuple) -> int:
                    un, argids = names[tc(env)], tuple(f(env) for f in targs)
                    entries = []
                    for v1, c in un.entries:
                        inner_env = _extend(env, slots, (self.nid(c), *argids))
                        for w in self.realizers + (rv,):
                            if self.reals(cb, w, inner_env) is REALIZES:
                                entries.append((EAxRep("sep", EPairP(mem_wrap(v1), w)), c))
                                break
                    return self.name(entries)

                return sep
            case NameRef():
                why = "foreign name constant"
            case Inac() | NwfConst():
                why = f"no desk-scale meaning for {t!r}"
            case _:
                why = f"no meaning for term {t!r}"

        def fail(env: tuple) -> int:
            raise UnsupportedFormulaError(why)

        return fail

    def succ(self, n: int) -> int:
        """The id of the successor of the name with id n."""
        if self._succ is None:
            self._succ = self._term(succ_term(Var("b")), (None, "b"))
        return self._succ((-1, n))

    def omega(self) -> int:
        """The id of omega's name, ``omega_name()``."""
        if self._omega is None:
            self._omega = self.nid(omega_name())
        return self._omega

    # -- the realizability relation proper

    def reals(self, node: _Node, m: ErasedProof, env: tuple) -> Verdict:
        """Whether m realizes node's formula under env.  A subject without
        the value shape the clause wants fails (or is unknown, out of fuel)
        before any memo is touched: no instance can recur through it.  Its
        value and key are read off its one entry."""
        if node.head is None:
            m_or_v, k = m, self.key(m)
        else:
            _, k, m_or_v, err = self._value_of(m)
            if err is not None:
                return err
            if not isinstance(m_or_v, node.head):
                return FAILS
        if node.clause is None:
            node.clause = node.build()
        hit = self._rel.get(key := (node.key, k, node.pick(env)))
        return self._memo(key, lambda: node.clause(m_or_v, env)) if hit is None else hit

    def _formula(self, phi: Formula, scope: tuple) -> _Node:
        """phi compiled under ``scope``, once; its clause is built on demand."""
        hit = self._compiled.get((id(phi), scope))
        if hit is None:
            node = _Node()
            node.key, node.pick, node.head = self.key(phi), _picker(phi, scope), _HEADS.get(type(phi))
            node.clause, node.build = None, lambda: self._clause(phi, scope)
            hit = self._compiled[(id(phi), scope)] = (phi, node)
        return hit[1]

    def _clause(self, phi: Formula, scope: tuple) -> Callable[[ErasedProof, tuple], Verdict]:
        """phi's clause, over the subject's value (its subject, for a node
        without a head) and an environment; it compiles phi's children."""
        reals, inst = self.reals, self.instantiate
        match phi:
            case Bottom():
                return lambda m, env: FAILS
            case MemI(l, r) | Mem(l, r) | Eq(l, r):
                rel = self.mem_i if isinstance(phi, MemI) else self.mem if isinstance(phi, Mem) else self.eq
                tl, tr = self._term(l, scope), self._term(r, scope)
                return lambda m, env: rel(m, tl(env), tr(env))
            case And(l, r):
                cl, cr = self._formula(l, scope), self._formula(r, scope)
                return lambda v, env: _both(reals(cl, v.left, env), reals(cr, v.right, env))
            case Or(l, r):
                cl, cr = self._formula(l, scope), self._formula(r, scope)
                return lambda v, env: reals(cl if isinstance(v, EInl) else cr, v.body, env)
            case Imp(l, r):
                cl, cr, pools = self._formula(l, scope), self._formula(r, scope), {}

                def imp(v: ELamP, env: tuple) -> Verdict:
                    pool = pools.get(env)
                    if pool is None:
                        # A realizer that is stuck or of the wrong shape fails
                        # the hypothesis, so the implication holds vacuously.
                        pool = pools[env] = self._hyp_pool(env[1:], cl.head)
                    pending = None
                    for n in pool:
                        hyp = reals(cl, n, env)
                        if hyp is FAILS:
                            continue
                        got = reals(cr, inst(v, n), env)
                        if hyp is not REALIZES and got is not REALIZES:
                            got = unknown(hyp.reason or "hypothesis unknown")
                        if got is FAILS:
                            return FAILS
                        if pending is None and got is not REALIZES:
                            pending = got
                    return self._swept if pending is None else pending

                return imp
            case Forall(a, body) | Exists(a, body):
                inner, slots = _bind(scope, (a,))
                cb, envs_of, every = self._formula(body, inner), {}, isinstance(phi, Forall)

                def quantifier(v: ELamF | EExIntro, env: tuple) -> Verdict:
                    envs = envs_of.get(env)
                    if envs is None:
                        pool = self._universe if every else self._exists_pool(env)
                        envs = envs_of[env] = tuple(_extend(env, slots, (n,)) for n in pool)
                    pending = None
                    if every:
                        body = inst(v, INSTANCE_TERM)
                        for e in envs:
                            got = reals(cb, body, e)
                            if got is FAILS:
                                return FAILS
                            if pending is None and got is not REALIZES:
                                pending = got
                        return self._swept if pending is None else pending
                    for e in envs:
                        got = reals(cb, v.body, e)
                        if got is REALIZES:
                            return REALIZES
                        if pending is None and got is not FAILS:
                            pending = got
                    return self._unmet if pending is None else pending

                return quantifier

        def fail(m: ErasedProof, env: tuple) -> Verdict:
            raise UnsupportedFormulaError(f"no clause for {phi!r}")

        return fail


@lru_cache(maxsize=None)
def omega_name() -> LambdaName:
    """omega's name, approximated to ``OMEGA_DEPTH`` numerals: a constant of
    the model, built once per process by an evaluator's ``succ`` and ``name``."""
    ev, rv = _Eval(RealizCfg()), refl_value()
    label, n = EAxRep("inf", EInl(rv)), ev._empty
    entries = [(label, EMPTY_NAME)]
    for _ in range(OMEGA_DEPTH - 1):
        n = ev.succ(n)
        label = EAxRep("inf", EInr(EExIntro(Empty(), EPairP(mem_wrap(label), rv))))
        entries.append((label, ev._names[n]))
    return ev._names[ev.name(entries)]


def _scan(phi: Formula) -> bool:
    """Whether phi has a separation; a formula with an inaccessible constant
    is rejected.  Checked once per public query: every formula the evaluator
    meets, separation bodies included, is a sub-tree of the query's.  The
    walk keeps its own work list, so a deep formula takes no stack."""
    todo, seps = [phi], False
    while todo:
        x = todo.pop()
        if isinstance(x, Inac):
            raise UnsupportedFormulaError("inaccessible constants are outside the finite model")
        seps = seps or isinstance(x, Sep)
        map_children(x, lambda y: todo.append(y) or y)
    return seps


# ---------------------------------------------------------------------------
# Public operations


def reals(
    m: ErasedProof,
    phi: Formula,
    rho: dict[str, LambdaName] | None = None,
    cfg: RealizCfg | None = None,
) -> Verdict:
    cfg = cfg if cfg is not None else default_cfg()
    seps = _scan(phi)
    ev = cfg.__dict__.get("_model") or _Eval(cfg)
    object.__setattr__(cfg, "_model", ev)
    ev.begin(seps)
    try:
        scope, env = ev._root(rho or {})
        return ev.reals(ev._formula(phi, scope), m, env)
    finally:
        ev.begin()
