#!/usr/bin/env python3
"""Regenerate the golden parse table, tests/parse_golden.json.

Usage: python scripts/parse_golden.py [--check]

Each case is a text and the reader it goes through (``parse``,
``parse_term``, ``parse_formula``, ``parse_proof`` or ``parse_axiom``).  The
table holds ``ok <sha256 of repr(tree)>`` for a text that parses and the exact
``str(Diagnostic)`` for one that does not.  The cases are:

* every ``corpus/*.izf`` file;
* the printed texts of seeded ``tests/gens.py`` terms, formulas and proofs;
* the benchmark's ``library`` declarations for one seed;
* seeded token mutations of the corpus files: a token deleted, doubled,
  replaced or swapped with its neighbour, or a word inserted;
* hand-written cases: bad characters, reserved words as binders, ``inac0Rep``,
  unclosed brackets, an empty file, separations and replacements whose
  parameters and arguments differ in number, and the readers' own entry
  points.

The mutations cut the text at tokens of this script's own regex, so the
table does not depend on the tokenizer under test.  With ``--check`` the
table is compared instead of written, and the script exits 1 on any
difference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import random
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "parse_golden.json"
for _p in (ROOT / "src", ROOT / "tests", ROOT / "perfbench"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import inputs  # noqa: E402  (the benchmark's seeded inputs; imports nothing from izf)
from gens import rand_formula, rand_proof, rand_term  # noqa: E402
from izf import parser  # noqa: E402
from izf.printer import print_formula, print_proof, print_term  # noqa: E402

GEN_SEEDS = range(200)
LIBRARY_SEED = 0
# Mutations per corpus file: fewer of the long files, which cost the most to read.
MUTATIONS = {"axioms.izf": 120, "equality.izf": 120, "numerals.izf": 10, "nwf_loop.izf": 120,
             "reduction.izf": 40, "two_in_omega.izf": 120}
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|\d+|:=|<->|->|/\\|\\/|=>|--[^\n]*|\S")
# Words the mutations insert: symbols, reserved words, numbered words, names
# and characters no token starts with.
_VOCAB = (
    ":=", "<->", "->", "/\\", "\\/", "=>", "{", "}", "(", ")", "[", "]", ",", ";", ".", ":", "|", "=", "@",
    "thm", "eval", "realize", "mode", "nwf", "standard", "forall", "exists", "fun", "let", "in", "ini",
    "case", "of", "fst", "snd", "inl", "inr", "magic", "bot", "empty", "omega", "union", "power", "sep",
    "repl", "ind", "S", "nwfC", "V0", "V1", "V17", "0", "2", "inac0Rep", "inac2Prop", "pairRep",
    "eqProp", "sepRep", "indProp", "a", "b", "x", "y", "z1", "x'", "$", "#", "<", "-", "!",
)
_HAND = (
    ("parse", ""),
    ("parse", "-- only a comment\n"),
    ("parse", "thm t : bot := x $ ."),
    ("parse", "thm t : bot -> bot := fun (x : bot) => x . #"),
    ("parse", "thm t : bot ~ bot := x ."),
    ("parse", "thm forall : bot := x ."),
    ("parse", "thm t : forall V1, V1 = V1 := x ."),
    ("parse", "thm t : forall in, bot := x ."),
    ("parse", "thm t : bot -> bot := fun (fst : bot) => fst ."),
    ("parse", "thm t : bot -> bot := fun (pairRep : bot) => pairRep ."),
    ("parse", "thm t : bot -> bot := fun (inac3Prop : bot) => x ."),
    ("parse", "thm t : empty = empty := inac0Rep(empty, x) ."),
    ("parse", "thm t : empty = empty := inac0Prop(empty, x) ."),
    ("parse", "thm t : empty = empty := inac1Rep(empty, x) ."),
    ("parse", "thm t : (bot -> bot := x ."),
    ("parse", "thm t : bot := fst((x, y) ."),
    ("parse", "thm t : {empty, omega = empty := x ."),
    ("parse", "thm t : sep[z | z in a(empty) = empty := x ."),
    ("parse", "thm t : bot := case x of { y : bot => y ; z : bot => z ."),
    ("parse", "thm t : bot := [empty, x : exists a, bot ."),
    ("parse", "thm t : bot := x"),
    ("parse", "thm t : bot := x .\nthm t : bot := x ."),
    ("parse", "eval nothing ."),
    ("parse", "mode classic ."),
    ("parse", "mode nwf"),
    ("parse", "thm t : V0 in V3 := x .\nrealize t ."),
    ("parse", "thm t : 3 in omega := x ."),
    ("parse_term", "(((empty))"),
    ("parse_term", "V0"),
    ("parse_term", "4"),
    ("parse_term", "S(S(0))"),
    ("parse_term", "sep[z a | z in a](omega; empty)"),
    ("parse_term", "repl[y z | y = z](omega)"),
    ("parse_term", "union"),
    ("parse_formula", "bot <-> bot <-> bot"),
    ("parse_formula", "a in b in c"),
    ("parse_formula", "forall a b, bot"),
    ("parse_formula", "exists a, a ini b /\\ b = a \\/ bot -> bot <-> bot"),
    ("parse_proof", "f fun x => x"),
    ("parse_proof", "f @a @b x y"),
    ("parse_proof", "pairRep(a, b, c)"),
    ("parse_proof", "pairRep(a, b, c, x, y)"),
    ("parse_proof", "inac0Rep(empty, x)"),
    ("parse_proof", "let [a, x : bot] := y in x"),
    ("parse_proof", "ind[a | bot](x; b, c)"),
    ("parse_axiom", "pair"),
    ("parse_axiom", "inac0"),
    ("parse_axiom", "inac2"),
    ("parse_axiom", "sep[z | z in"),
    ("parse_axiom", "sep[z a | z in a]"),
    ("parse_axiom", "sep[z | bot] junk"),
    ("parse_axiom", "pairRep"),
    ("parse_term", "sep[z a | z in a](omega)"),
    ("parse_term", "repl[y z a | y = z](omega)"),
    ("parse_term", "{empty, sep[z a | z in a](omega)}"),
    ("parse_formula", "empty in sep[z a b | bot](omega; empty) /\\ bot"),
    ("parse", "thm t : sep[z g | z in g](a) = empty := x ."),
    ("parse_proof", "f @repl[y z | y = z](omega; empty)"),
    ("parse_proof", "fst(inac0Rep(empty, x))"),
)


def _gens():
    for seed in GEN_SEEDS:
        rng = random.Random(seed)
        yield f"gens/{seed}/term", "parse_term", print_term(rand_term(rng, 3))
        yield f"gens/{seed}/formula", "parse_formula", print_formula(rand_formula(rng, 4))
        yield f"gens/{seed}/proof", "parse_proof", print_proof(rand_proof(rng, 4))


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        spans = [m.span() for m in _TOKEN.finditer(text)]
        if not spans:
            return text
        k = rng.randrange(len(spans))
        a, b = spans[k]
        op = rng.randrange(5)
        if op == 0:  # delete
            text = text[:a] + text[b:]
        elif op == 1:  # double
            text = text[:b] + " " + text[a:b] + text[b:]
        elif op == 2:  # replace
            text = text[:a] + rng.choice(_VOCAB) + text[b:]
        elif op == 3:  # insert
            text = text[:a] + rng.choice(_VOCAB) + " " + text[a:]
        elif k + 1 < len(spans):  # swap with the next token
            c, d = spans[k + 1]
            text = text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
    return text


def cases():
    """Yield (case id, reader name, text)."""
    files = sorted((ROOT / "corpus").glob("*.izf"))
    for path in files:
        yield f"corpus/{path.name}", "parse", path.read_text("utf-8")
    yield from _gens()
    for k, item in enumerate(inputs.library_items(LIBRARY_SEED)):
        yield f"library/{LIBRARY_SEED}/{k}", "parse", item.text
    for name, count in MUTATIONS.items():
        rng = random.Random(f"mutate:{name}")
        text = (ROOT / "corpus" / name).read_text("utf-8")
        for k in range(count):
            yield f"mutation/{name}/{k}", "parse", _mutate(rng, text)
    for k, (reader, text) in enumerate(_HAND):
        yield f"hand/{k}", reader, text


def outcome(reader: str, text: str) -> str:
    try:
        tree = getattr(parser, reader)(text)
    except parser.Diagnostic as d:
        return str(d)
    return "ok " + hashlib.sha256(repr(tree).encode()).hexdigest()


def table() -> dict[str, str]:
    return {cid: outcome(reader, text) for cid, reader, text in cases()}


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
