#!/usr/bin/env python3
"""Regenerate the golden realizability verdict table, tests/realize_verdicts.json.

Usage: python scripts/realize_verdicts.py [--check]

The table holds the (status, reason) of every query in `queries()`:

* the four benchmark realize checks over 5 seeds x 4 universes, configured
  as the `realize` workload configures them;
* the stock realizers against their statements at fuel 5/20/60/200,
  truncated and not;
* the erasure of every standard corpus theorem against its statement,
  truncated and not, and of the theorems grown for seeds 0-3;
* every stock realizer against every standard statement, and every standard
  erasure against the four stock statements, at depth 1 truncated and not
  and at depth 0;
* the stock and corpus realizers with a diverging hypothesis realizer in
  the pool;
* open formulas under environments whose names lie outside the universe.

A query whose formula has no desk-scale meaning is recorded with status
``unsupported``.  With ``--check`` the table is compared instead of written,
and the script exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "realize_verdicts.json"
for _p in (ROOT / "src", ROOT / "tests", ROOT / "perfbench"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import inputs  # noqa: E402  (the benchmark's seeded inputs; imports nothing from izf)
from izf import lemmas, realizers  # noqa: E402
from izf.corpus import nwf_suite, standard_entries  # noqa: E402
from izf.parser import parse_formula  # noqa: E402
from izf.proofs import EExIntro, EInl, EPairP  # noqa: E402
from izf.proof_ops import erase  # noqa: E402
from izf.realizability import (  # noqa: E402
    RealizCfg,
    UnsupportedFormulaError,
    default_cfg,
    default_realizer_pool,
    enumerate_names,
    identity_value,
    mem_wrap,
    reals,
    refl_value,
)
from izf.syntax import Empty  # noqa: E402
from test_metatheory_random import grown_theorems  # noqa: E402

BENCH_SEEDS = range(21, 26)
FUELS = (5, 20, 60, 200)
GROW_SEEDS = range(4)


def _stock():
    return (
        ("eqRefl", realizers.mk_eqRefl(), lemmas.eq_refl_formula()),
        ("eqSymm", realizers.mk_eqSymm(), lemmas.eq_symm_formula()),
        ("eqTrans", realizers.mk_eqTrans(), lemmas.eq_trans_formula()),
        ("lei", realizers.mk_lei(), lemmas.lei_formula()),
    )


def queries():
    """Yield (query id, realizer, formula, configuration[, environment])."""
    names = enumerate_names(inputs.UNIVERSE_DEPTH, inputs.UNIVERSE_POPULATION)
    suite = [
        (name, getattr(realizers, ctor)(), parse_formula(stmt))
        for name, ctor, stmt in inputs.REALIZE_SUITE
    ]
    for seed in BENCH_SEEDS:
        for sample in range(inputs.UNIVERSE_SAMPLES):
            cfg = RealizCfg(
                fuel=10**4,
                universe=tuple(names[i] for i in inputs.universe_indices(seed, sample)),
                realizers=default_realizer_pool()[:8],
                truncated=False,
            )
            for name, m, phi in suite:
                yield f"bench/{seed}/{sample}/{name}", m, phi, cfg
    stock = _stock()
    for fuel in FUELS:
        for truncated in (False, True):
            cfg = default_cfg(depth=1, fuel=fuel, truncated=truncated)
            for name, m, phi in stock:
                yield f"fuel/{fuel}/{truncated}/{name}", m, phi, cfg
    entries = standard_entries()
    for truncated in (False, True):
        cfg = default_cfg(depth=1, truncated=truncated)
        for e in entries:
            yield f"corpus/{truncated}/{e.name}", erase(e.proof), e.formula, cfg
    cfg = default_cfg(depth=1)
    for seed in GROW_SEEDS:
        for k, (m, phi) in enumerate(grown_theorems(seed)):
            yield f"grown/{seed}/{k}", erase(m), phi, cfg
    for depth, truncated in ((1, False), (1, True), (0, False)):
        cfg = default_cfg(depth=depth, truncated=truncated)
        tag = f"cross/{depth}/{truncated}"
        for name, m, _ in stock:
            for e in entries:
                yield f"{tag}/{name}/{e.name}", m, e.formula, cfg
        for e in entries:
            for name, _, phi in stock:
                yield f"{tag}/{e.name}/{name}", erase(e.proof), phi, cfg
    loop = erase(next(e for e in nwf_suite() if e.name == "nwf_l2").proof)
    cfg = RealizCfg(fuel=300, universe=enumerate_names(1, 6), realizers=(*default_realizer_pool(), loop))
    for name, m, phi in (*stock, *((e.name, erase(e.proof), e.formula) for e in entries)):
        yield f"diverging/{name}", m, phi, cfg
    yield from _open_queries()


def _open_queries():
    """Open formulas under environments of depth-2 names, with universes of
    depth 0 and 1: the pools must draw on the environment's names."""
    names = enumerate_names(2, 24)
    i, r = identity_value(), refl_value()
    subjects = (
        *default_realizer_pool(),
        *(m for _, m, _ in _stock()),
        EExIntro(Empty(), mem_wrap(i)),
        EExIntro(Empty(), EPairP(mem_wrap(i), r)),
        EExIntro(Empty(), EInl(mem_wrap(i))),
    )
    formulas = (
        "exists x, x in b",
        "exists x, x = b",
        "exists x, b in x",
        "exists x, x ini b /\\ x = c",
        "forall x, x in b -> x in c",
        "b = c -> c = b",
        "b in c \\/ c in b",
        "exists x, exists y, x in y /\\ y = b",
    )
    for depth in (0, 1):
        cfg = default_cfg(depth=depth)
        for k in (5, 11, 17, 23):
            rho = {"b": names[k], "c": names[k - 4]}
            for text in formulas:
                phi = parse_formula(text)
                for j, m in enumerate(subjects):
                    yield f"open/{depth}/{k}/{text}/{j}", m, phi, cfg, rho


def verdict(m, phi, cfg, rho=None) -> list[str]:
    try:
        v = reals(m, phi, rho, cfg)
    except UnsupportedFormulaError as err:
        return ["unsupported", str(err)]
    return [v.status, v.reason]


def table() -> dict[str, list[str]]:
    return {qid: verdict(*query) for qid, *query in queries()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="compare with the table instead of writing it")
    args = ap.parse_args()
    got = table()
    if args.check:
        want = json.loads(TABLE.read_text("utf-8"))
        diff = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
        for k in diff:
            print(f"{k}: want {want.get(k)} got {got.get(k)}")
        sys.exit(1 if diff else 0)
    TABLE.write_text(json.dumps(got, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {TABLE} ({len(got)} queries)")


if __name__ == "__main__":
    main()
