#!/usr/bin/env python3
"""Regenerate the golden check-and-print table, tests/check_golden.json.

Usage: python scripts/check_golden.py [--check]

Each case is a proof, a context and a mode.  The table holds, for each case,
``infer``: ``ok <sha256 of repr(type)>`` for the type ``typecheck.infer``
synthesizes, or ``err <kind> <path> | <message> | <expected> | <found>`` for
the ``TypeCheckError`` it raises, each formula as the sha256 of its ``repr``
(``-`` for none); and ``print``: the
sha256 of the exact text ``printer.print_tree`` gives for the proof and, when
there is one, for the synthesized type.  The cases are:

* every declaration of every ``corpus/*.izf`` file, and those of the
  non-well-founded files once more outside their mode;
* the benchmark's ``library`` declarations for one seed;
* seeded ``tests/gens.py`` proofs, in a context that binds some of their
  free hypotheses, so many are ill-typed;
* seeded mutations of the corpus declarations and of those proofs: two
  sub-proofs swapped, a sub-proof replaced by another of the same tree, or a
  formula annotation replaced by another.

With ``--check`` the table is compared instead of written, and the script
exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "check_golden.json"
for _p in (ROOT / "src", ROOT / "tests", ROOT / "perfbench"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import inputs  # noqa: E402  (the benchmark's seeded inputs; imports nothing from izf)
from gens import rand_formula, rand_proof  # noqa: E402
from izf.parser import parse  # noqa: E402
from izf.printer import print_tree  # noqa: E402
from izf.syntax import FORMULA, PROOF, SHAPES  # noqa: E402
from izf.typecheck import TypeCheckError, infer  # noqa: E402

GEN_SEEDS = range(300)
LIBRARY_SEED = 0
MUTATIONS = 8  # per corpus declaration
FEW_MUTATIONS = 2  # per library item, whose deep chains give long paths, and per generated proof


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _sites(proof) -> list[tuple[tuple[str, ...], object, object]]:
    """Every sub-proof and formula annotation of a proof: its path of field
    names, the node and its kind."""
    out, todo = [], [((), proof, PROOF)]
    while todo:
        p, n, kind = todo.pop()
        out.append((p, n, kind))
        if kind is PROOF:
            todo += [(p + (f.name,), getattr(n, f.name), f.kind) for f in SHAPES[type(n)].fields if f.kind in (PROOF, FORMULA)]
    return out


def _replace(x, **changes):
    """The node x with the given fields changed."""
    return type(x)(*(changes.get(name, getattr(x, name)) for name in x.__match_args__))


def _put(x, path: tuple[str, ...], new):
    if not path:
        return new
    return _replace(x, **{path[0]: _put(getattr(x, path[0]), path[1:], new)})


def _mutate(rng: random.Random, proof):
    """One mutation: sibling sub-proofs swapped, a sub-proof replaced by
    another of the tree, or a formula annotation replaced."""
    sites = _sites(proof)
    proofs = [(p, n) for p, n, kind in sites if kind is PROOF]
    anns = [(p, n) for p, n, kind in sites if kind is FORMULA]
    op = rng.randrange(3)
    if op == 0:
        pairs = [(p, n) for p, n in proofs if sum(f.kind is PROOF for f in SHAPES[type(n)].fields) >= 2]
        if pairs:
            p, n = rng.choice(pairs)
            a, b = rng.sample([f.name for f in SHAPES[type(n)].fields if f.kind is PROOF], 2)
            return _put(proof, p, _replace(n, **{a: getattr(n, b), b: getattr(n, a)}))
    if op <= 1 and len(proofs) > 1:
        (p, _), (_, n) = rng.sample(proofs, 2)
        return _put(proof, p, n)
    if anns:
        p, old = rng.choice(anns)
        pool = [n for _, n in anns if n != old]
        new = rng.choice(pool) if pool and rng.random() < 0.5 else rand_formula(rng, 2)
        return _put(proof, p, new)
    return proof


def cases():
    """Yield (case id, context, proof, nwf)."""
    seeds = []
    for path in sorted((ROOT / "corpus").glob("*.izf")):
        tf = parse(path.read_text("utf-8"))
        for d in tf.declarations:
            seeds.append((f"corpus/{path.name}/{d.name}", (), d.proof, tf.nwf, MUTATIONS))
    for k, item in enumerate(inputs.library_items(LIBRARY_SEED)):
        tf = parse(item.text)
        for d in tf.declarations:
            seeds.append((f"library/{LIBRARY_SEED}/{k}", (), d.proof, tf.nwf, FEW_MUTATIONS))
    for seed in GEN_SEEDS:
        rng = random.Random(seed)
        ctx = tuple((x, rand_formula(rng, 2)) for x in rng.sample(("x", "y", "z"), rng.randint(0, 3)))
        seeds.append((f"gens/{seed}", ctx, rand_proof(rng, 4), False, FEW_MUTATIONS))
    for cid, ctx, proof, nwf, count in seeds:
        yield cid, ctx, proof, nwf
        if nwf:
            yield f"{cid}/standard", ctx, proof, False
        rng = random.Random(f"mutate:{cid}")
        for k in range(count):
            yield f"{cid}/mutation/{k}", ctx, _mutate(rng, proof), nwf


def outcome(ctx, proof, nwf: bool) -> dict[str, str]:
    printed = [print_tree(proof)]
    try:
        ty = infer(ctx, proof, nwf)
    except TypeCheckError as e:
        shown = (_sha(repr(f)) if f is not None else "-" for f in (e.expected, e.found))
        got = f"err {e.kind} {'/'.join(e.path)} | {e.message} | {' | '.join(shown)}"
    else:
        got = "ok " + _sha(repr(ty))
        printed.append(print_tree(ty))
    return {"infer": got, "print": _sha("\n".join(printed))}


def table() -> dict[str, dict[str, str]]:
    return {cid: outcome(ctx, proof, nwf) for cid, ctx, proof, nwf in cases()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="compare with the table instead of writing it")
    args = ap.parse_args()
    got = table()
    if args.check:
        want = json.loads(TABLE.read_text("utf-8"))
        diff = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
        for k in diff:
            print(f"{k}: want {want.get(k)!r} got {got.get(k)!r}")
        sys.exit(1 if diff else 0)
    TABLE.write_text(json.dumps(got, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {TABLE} ({len(got)} cases)")


if __name__ == "__main__":
    main()
