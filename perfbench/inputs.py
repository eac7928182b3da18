"""Seeded inputs for the benchmark workloads, generated as `.izf` text.

The benchmark owns its inputs: the scalable families (numerals and the five
burn chains) are spelled out here in the concrete syntax the printer emits,
and the fixed theorems (axiom theorems, equality lemmas, lemma applications
and the non-well-founded replay term) are frozen in `fixed_corpus.json`.
The program under test only ever sees the resulting text, so two commits
given the same seed parse exactly the same bytes; `digest` proves it.

This module imports nothing from `izf`.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
from dataclasses import dataclass

_FIXED = json.loads((pathlib.Path(__file__).parent / "fixed_corpus.json").read_text("utf-8"))

# The equality-reflexivity proof, instantiated with `@t` wherever used.
_REFL = (
    "ind[a | a = a](fun c => fun (x : forall b, b ini c -> b = b) => eqRep(c, c, fun d => "
    "(fun (y : d ini c) => inRep(d, c, [d, (y, x @d y) : exists c1, c1 ini c /\\ d = c1]), "
    "fun (y : d ini c) => inRep(d, c, [d, (y, x @d y) : exists c1, c1 ini c /\\ d = c1]))))"
)
_ID_BOT = "fun (x : bot) => x"


@dataclass(frozen=True)
class Item:
    """One single-declaration theorem file with its known answers."""

    text: str
    step_bound: int  # the declaration must reach a value within this many steps
    numeral: int | None = None  # extract_numeral must return this


def _thm(name: str, formula: str, proof: str) -> str:
    return f"thm {name} : {formula} :=\n  {proof} .\n"


def _numeral_term(k: int) -> str:
    t = "empty"
    for _ in range(k):
        t = f"union {{{t}, {{{t}, {t}}}}}"
    return t


def _succ_clause(t: str) -> str:
    return f"exists b, b in omega /\\ {t} = union {{b, {{b, b}}}}"


def _mem_omega(k: int) -> str:
    t = _numeral_term(k)
    inf_phi = f"{t} = empty \\/ ({_succ_clause(t)})"
    if k == 0:
        disj = f"inl({_REFL} @{t} : {inf_phi})"
    else:
        prev = _numeral_term(k - 1)
        body = f"[{prev}, ({_mem_omega(k - 1)}, {_REFL} @{t}) : {_succ_clause(t)}]"
        disj = f"inr({body} : {inf_phi})"
    return (
        f"inRep({t}, omega, [{t}, (infRep({t}, {disj}), {_REFL} @{t}) "
        f": exists c, c ini omega /\\ {t} = c])"
    )


def numeral(n: int) -> Item:
    """A proof that the n-th von Neumann numeral is in omega (about 3x text per step)."""
    text = _thm(f"num_{n}", f"{_numeral_term(n)} in omega", _mem_omega(n))
    return Item(text, 0, n)


def _beta(n: int) -> tuple[str, str, int]:
    t = _ID_BOT
    for _ in range(n):
        t = f"(fun (x : bot -> bot) => x) ({t})"
    return "bot -> bot", t, n


def _proj(n: int) -> tuple[str, str, int]:
    t = _ID_BOT
    for k in range(n):
        t = f"fst(({t}, {_ID_BOT}))" if k % 2 == 0 else f"snd(({_ID_BOT}, {t}))"
    return "bot -> bot", t, n


def _case(n: int) -> tuple[str, str, int]:
    t = _ID_BOT
    for _ in range(n):
        t = (
            f"case inl({t} : (bot -> bot) \\/ bot) of "
            "{ x : bot -> bot => x ; y : bot => fun (z : bot) => y }"
        )
    return "bot -> bot", t, n


def _cancel(n: int) -> tuple[str, str, int]:
    phi = "empty = empty \\/ empty = omega"
    t = f"inl({_REFL} @empty : {phi})"
    for _ in range(n):
        t = f"pairProp(empty, empty, omega, pairRep(empty, empty, omega, {t}))"
    return phi, t, n


def _let(n: int) -> tuple[str, str, int]:
    t = f"{_REFL} @empty"
    for _ in range(n):
        t = f"let [a, x : empty = empty] := [empty, {t} : exists a, empty = empty] in x"
    return "empty = empty", t, n + 4


# family -> (text generator, shipped depth, number in the draw)
BURN_CHAINS = {
    "beta": (_beta, 300, 16),
    "proj": (_proj, 64, 40),
    "case": (_case, 48, 40),
    "cancel": (_cancel, 48, 40),
    "let": (_let, 48, 40),
}
NUMERALS = range(7)


def burn_chain(family: str, n: int) -> Item:
    build = BURN_CHAINS[family][0]
    formula, proof, bound = build(n)
    return Item(_thm(f"red_{family}", formula, proof), bound)


DEPTH_JITTER = 2


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One depth near the middle of each of `count` equal slices of [lo, hi].

    The draw stays within `DEPTH_JITTER` of the middle: a burn chain's cost
    grows faster than its depth, so a draw from the whole slice moved the
    95th percentile by a fifth from seed to seed.
    """
    out = []
    for j in range(count):
        mid = lo + (hi - lo) * (2 * j + 1) // (2 * count)
        out.append(rng.randint(mid - DEPTH_JITTER, mid + DEPTH_JITTER))
    return out


def library_items(seed: int) -> list[Item]:
    """The `library` draw: 204 declarations in a seeded order.

    The fixed theorems and the numerals 0..6 appear once each.  Burn chains
    run from a quarter to 1.5x their shipped depth, one depth near the middle
    of each equal slice of that range, so every seed gets the same spread of
    sizes; the seed moves each depth a little and sets the order.
    """
    rng = random.Random(f"library:{seed}")
    items = [Item(e["text"], e["step_bound"]) for e in _FIXED["library"]]
    items += [numeral(n) for n in NUMERALS]
    for family, (_, shipped, count) in BURN_CHAINS.items():
        depths = _stratified(rng, shipped // 4, shipped * 3 // 2, count)
        items += [burn_chain(family, n) for n in depths]
    rng.shuffle(items)
    return items


def replay_text() -> str:
    """`nwf_l2`: type-checks in nwf mode, then loops with period three."""
    return _FIXED["nwf_l2"]


# The realize suite: (name, realizer constructor in izf.realizers, statement).
REALIZE_SUITE = (
    ("eqRefl", "mk_eqRefl", "forall a, a = a"),
    ("eqSymm", "mk_eqSymm", "forall a, forall b, a = b -> b = a"),
    ("eqTrans", "mk_eqTrans", "forall b, forall a, forall c, a = b /\\ b = c -> a = c"),
    ("lei", "mk_lei", "forall a, forall b, forall c, a in c /\\ a = b -> b in c"),
)
UNIVERSE_DEPTH = 2
UNIVERSE_SIZE = 6  # names per universe
UNIVERSE_SAMPLES = 4  # universes per run; each is checked in its own interpreter
UNIVERSE_POPULATION = UNIVERSE_SIZE * UNIVERSE_SAMPLES  # the smallest names of that depth


def universe_indices(seed: int, sample: int) -> list[int]:
    """Indices of the names in one `realize` universe.

    The universes of a run partition the smallest depth-2 names.
    `enumerate_names` lists smaller names first, and each universe takes one
    name from every slice of `UNIVERSE_SAMPLES` consecutive names, so every
    universe gets the same spread of name sizes and every run the same names.
    """
    rng = random.Random(f"realize:{seed}")
    out = []
    for start in range(0, UNIVERSE_POPULATION, UNIVERSE_SAMPLES):
        slot = list(range(UNIVERSE_SAMPLES))
        rng.shuffle(slot)
        out.append(start + slot[sample])
    return out


def digest(*parts: object) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()[:16]
