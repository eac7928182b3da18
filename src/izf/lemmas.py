"""The derived equality lemmas and the numeral membership proofs, as text.

Each lemma is one ``thm`` declaration in the notation: its statement and its
proof, parsed on first use and kept (``axioms.parsed``), so importing the
package parses nothing.  The proofs follow the informal equality proofs:
reflexivity by set induction, symmetry by swapping the two directions of
(EQ), transitivity by set induction on the middle argument with the two
membership unfoldings chained through the inductive hypothesis,
membership-respecting equality composing symmetry and transitivity, and
extensionality embedding an intensional member through reflexivity.  A
lemma that uses another cites it by name, and its text is read after the
other's, as a theorem file is: the parser inlines the cited proof.  A
numeral proof iterates one step template, open in ``t``, ``p`` and the
hypothesis ``prev``, over the zero case; one ``substitute_many`` fills a
level in.
"""

from __future__ import annotations

from .axioms import parsed
from .parser import Declaration
from .proofs import Proof
from .syntax import Empty, Formula, numeral, substitute_many, succ_term

EQ_REFL = r"""
thm eq_refl : forall a, a = a :=
  ind[a | a = a](fun c => fun (x : forall b, b ini c -> b = b) =>
    eqRep(c, c, fun d => (
      fun (y : d ini c) => inRep(d, c, [d, (y, x @d y) : exists c1, c1 ini c /\ d = c1]),
      fun (y : d ini c) => inRep(d, c, [d, (y, x @d y) : exists c1, c1 ini c /\ d = c1])))) .
"""

EQ_SYMM = r"""
thm eq_symm : forall a, forall b, a = b -> b = a :=
  fun a => fun b => fun (x : a = b) =>
    eqRep(b, a, fun d => (snd(eqProp(a, b, x) @d), fst(eqProp(a, b, x) @d))) .
"""

# Both directions unfold f's membership twice, through b and then through the
# far side, and close with x1 @a2 fst(x4) @f @a3 (snd(x4), snd(x5)) : f = a3.
EQ_TRANS = r"""
thm eq_trans : forall b, forall a, forall c, a = b /\ b = c -> a = c :=
  ind[b | forall a, forall c, a = b /\ b = c -> a = c](fun b =>
    fun (x1 : forall e, e ini b -> (forall a, forall c, a = e /\ e = c -> a = c)) =>
    fun a1 => fun c => fun (x2 : a1 = b /\ b = c) => eqRep(a1, c, fun f => (
      fun (x3 : f ini a1) =>
        let [a2, x4 : a2 ini b /\ f = a2] := inProp(f, b, fst(eqProp(a1, b, fst(x2)) @f) x3) in
        let [a3, x5 : a3 ini c /\ a2 = a3] := inProp(a2, c, fst(eqProp(b, c, snd(x2)) @a2) fst(x4)) in
        inRep(f, c, [a3, (fst(x5), x1 @a2 fst(x4) @f @a3 (snd(x4), snd(x5))) : exists c1, c1 ini c /\ f = c1]),
      fun (x3 : f ini c) =>
        let [a2, x4 : a2 ini b /\ f = a2] := inProp(f, b, snd(eqProp(b, c, snd(x2)) @f) x3) in
        let [a3, x5 : a3 ini a1 /\ a2 = a3] := inProp(a2, a1, snd(eqProp(a1, b, fst(x2)) @a2) fst(x4)) in
        inRep(f, a1, [a3, (fst(x5), x1 @a2 fst(x4) @f @a3 (snd(x4), snd(x5))) : exists c, c ini a1 /\ f = c])))) .
"""

LEI = EQ_SYMM + EQ_TRANS + r"""
thm eq_lei : forall a, forall b, forall c, a in c /\ a = b -> b in c :=
  fun a => fun b => fun c => fun (x : a in c /\ a = b) =>
    let [d, y : d ini c /\ a = d] := inProp(a, c, fst(x)) in
    inRep(b, c, [d, (fst(y), eq_trans @a @b @d (eq_symm @a @b snd(x), snd(y))) : exists c1, c1 ini c /\ b = c1]) .
"""

EXT = EQ_REFL + r"""
thm eq_ext : forall a, forall b, (forall d, (d in a -> d in b) /\ (d in b -> d in a)) -> a = b :=
  fun a => fun b => fun (x : forall d, (d in a -> d in b) /\ (d in b -> d in a)) => eqRep(a, b, fun d => (
    fun (y : d ini a) => fst(x @d) inRep(d, a, [d, (y, eq_refl @d) : exists c, c ini a /\ d = c]),
    fun (y : d ini b) => snd(x @d) inRep(d, b, [d, (y, eq_refl @d) : exists c, c ini b /\ d = c]))) .
"""

# Zero is in omega by the infinity axiom's first clause, then (IN).
NUM_ZERO = EQ_REFL + r"""
thm num_0 : empty in omega :=
  inRep(empty, omega, [empty, (
    infRep(empty, inl(eq_refl @empty : empty = empty \/ (exists b, b in omega /\ empty = S(b)))),
    eq_refl @empty) : exists c, c ini omega /\ empty = c]) .
"""

# t = S(p) is in omega by the successor clause at prev : p in omega, then (IN).
NUM_STEP = EQ_REFL + r"""
thm num_step : t in omega :=
  inRep(t, omega, [t, (
    infRep(t, inr([p, (prev, eq_refl @t) : exists b, b in omega /\ t = S(b)]
      : t = empty \/ (exists b, b in omega /\ t = S(b)))),
    eq_refl @t) : exists c, c ini omega /\ t = c]) .
"""


def _thm(text: str) -> Declaration:
    """The last theorem of a text, the one it is named for."""
    return parsed(text, "parse").declarations[-1]


def eq_refl_formula() -> Formula:
    return _thm(EQ_REFL).formula


def mk_eq_refl() -> Proof:
    return _thm(EQ_REFL).proof


def eq_symm_formula() -> Formula:
    return _thm(EQ_SYMM).formula


def mk_eq_symm() -> Proof:
    return _thm(EQ_SYMM).proof


def eq_trans_formula() -> Formula:
    return _thm(EQ_TRANS).formula


def mk_eq_trans() -> Proof:
    return _thm(EQ_TRANS).proof


def lei_formula() -> Formula:
    return _thm(LEI).formula


def mk_lei() -> Proof:
    return _thm(LEI).proof


def ext_formula() -> Formula:
    return _thm(EXT).formula


def mk_ext() -> Proof:
    return _thm(EXT).proof


def numeral_mem_formula(n: int) -> Formula:
    return substitute_many(_thm(NUM_STEP).formula, {"t": numeral(n)})


def build_numeral_proof(n: int) -> Proof:
    """A proof that the n-th numeral is a member of omega: n steps over the
    zero case, each at t = S(p) built once, so the proof shares the
    successor chain and a level adds a constant number of nodes."""
    if n < 0:
        raise ValueError("numerals are non-negative")
    step, t, proof = _thm(NUM_STEP).proof, Empty(), _thm(NUM_ZERO).proof
    for _ in range(n):
        p, t = t, succ_term(t)
        proof = substitute_many(step, {"t": t, "p": p, "prev": proof})
    return proof
