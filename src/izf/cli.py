"""Command-line interface.

Subcommands: check (parse and type-check), normalize (fuel-bounded runs
with optional trace export and cycle reports), extract (disjunct, witness
or numeral), realize (verdicts over a finite name universe), axiom (print
instantiated axiom statements).  Exit code 0 means every declaration
succeeded, 1 means some failed, 2 means the invocation was malformed, a
number out of its range included.  IZF_FUEL overrides the default step
budget of normalize and extract when no --fuel is given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .axioms import axiom_statement
from .extraction import (
    ExtractionConfig,
    ExtractionError,
    extract_dp,
    extract_numeral,
    extract_witness,
)
from .parser import Diagnostic, TheoremFile, parse, parse_axiom, parse_term
from .printer import print_formula, print_proof, print_term
from .proof_ops import erase
from .realizability import UnsupportedFormulaError, default_cfg, reals
from .reduction import DEFAULT_FUEL, FuelExhausted, StuckTerm, detect_cycle, normalize
from .syntax import Forall, substitute
from .typecheck import TypeCheckError, check


def _at_least(least: int, value: int, what: str) -> int:
    """value, or exit 2 with one line when it is below least."""
    if value < least:
        print(f"izf: {what} must be at least {least}, not {value}", file=sys.stderr)
        raise SystemExit(2)
    return value


def _fuel(args, least: int) -> int:
    """The step budget: --fuel, else IZF_FUEL, else the default."""
    if args.fuel is not None:
        return _at_least(least, args.fuel, "--fuel")
    env = os.environ.get("IZF_FUEL")
    if env is None:
        return DEFAULT_FUEL
    try:
        fuel = int(env)
    except ValueError:
        print(f"izf: bad IZF_FUEL value {env!r}", file=sys.stderr)
        raise SystemExit(2)
    return _at_least(least, fuel, "IZF_FUEL")


def _load(path: str) -> TheoremFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"izf: cannot read {path}: {e}", file=sys.stderr)
        raise SystemExit(1)
    try:
        return parse(text)
    except Diagnostic as d:
        print(f"{path}:{d}", file=sys.stderr)
        raise SystemExit(1)


def _selected(tf: TheoremFile, kind: str):
    names = [n for k, n in tf.directives if k == kind]
    if names:
        chosen = set(names)
        return [d for d in tf.declarations if d.name in chosen]
    return list(tf.declarations)


def _render_type_error(name: str, e: TypeCheckError) -> str:
    out = [f"FAIL {name}: {e}"]
    if e.expected is not None:
        out.append(f"  expected: {print_formula(e.expected)}")
    if e.found is not None:
        out.append(f"  found:    {print_formula(e.found)}")
    return "\n".join(out)


def cmd_check(args) -> int:
    failed = 0
    for path in args.files:
        tf = _load(path)
        for decl in tf.declarations:
            try:
                check((), decl.proof, decl.formula, nwf=tf.nwf)
                print(f"ok {decl.name} : {print_formula(decl.formula)}")
            except TypeCheckError as e:
                failed += 1
                print(_render_type_error(decl.name, e))
    return 1 if failed else 0


def cmd_normalize(args) -> int:
    fuel = _fuel(args, 0)
    trace_fh = open(args.trace, "w", encoding="utf-8") if args.trace else None
    failed = 0
    try:
        for path in args.files:
            tf = _load(path)
            for decl in _selected(tf, "eval"):
                try:
                    check((), decl.proof, decl.formula, nwf=tf.nwf)
                except TypeCheckError as e:
                    failed += 1
                    print(f"FAIL {decl.name}: {e}")
                    continue

                def on_step(i, rule, p, state, name=decl.name):
                    rec = {
                        "thm": name,
                        "step": i,
                        "rule": rule,
                        "path": "/".join(p),
                        "term": print_proof(state),
                    }
                    trace_fh.write(json.dumps(rec) + "\n")

                # The machine is deterministic: a run that revisits a state
                # loops for ever and spends all its fuel, so without a trace
                # to write, a cycle found in the first steps ends the run.
                budget = fuel if trace_fh is not None else min(fuel, 1000)
                out = normalize(decl.proof, budget, on_step=on_step if trace_fh is not None else None)
                cyc = detect_cycle(decl.proof, min(fuel, 1000)) if out.status == "fuel" else None
                if cyc is None and out.status == "fuel" and out.steps < fuel:
                    out = normalize(decl.proof, fuel)
                if out.status == "value":
                    print(f"{decl.name}: value in {out.steps} steps")
                    continue
                failed += 1
                report = f"{decl.name}: FuelExhausted after {fuel if cyc else out.steps} steps"
                if cyc is not None:
                    report += f"; cycle prefix={cyc[0]} period={cyc[1]}"
                print(report)
    finally:
        if trace_fh is not None:
            trace_fh.close()
    return 1 if failed else 0


def cmd_extract(args) -> int:
    fuel = _fuel(args, 1)
    cfg = ExtractionConfig(fuel=fuel, paranoid=args.paranoid)
    failed = 0
    for path in args.files:
        tf = _load(path)
        if tf.nwf:
            print(f"izf: {path}: extraction requires standard mode", file=sys.stderr)
            return 1
        for decl in _selected(tf, "eval"):
            try:
                goal = check((), decl.proof, decl.formula)
                if args.goal == "dp":
                    side, _ = extract_dp(decl.proof, cfg, goal)
                    print(side.value)
                elif args.goal == "witness":
                    term, _ = extract_witness(decl.proof, cfg, goal)
                    print(print_term(term))
                else:
                    print(extract_numeral(decl.proof, cfg, goal))
            except (TypeCheckError, ExtractionError, FuelExhausted, StuckTerm) as e:
                failed += 1
                print(f"FAIL {decl.name}: {e}")
    return 1 if failed else 0


def cmd_realize(args) -> int:
    fuel = _at_least(1, args.fuel, "--fuel") if args.fuel is not None else 10**4
    depth, pool = _at_least(0, args.depth, "--depth"), _at_least(0, args.pool, "--pool")
    cfg = default_cfg(depth=depth, fuel=fuel, pool_size=pool)
    failed = 0
    for path in args.files:
        tf = _load(path)
        if tf.nwf:
            print(f"izf: {path}: realizability requires standard mode", file=sys.stderr)
            return 1
        for decl in _selected(tf, "realize"):
            try:
                check((), decl.proof, decl.formula)
                verdict = reals(erase(decl.proof), decl.formula, {}, cfg)
            except TypeCheckError as e:
                failed += 1
                print(f"{decl.name} ERROR {e}")
                continue
            except UnsupportedFormulaError as e:
                failed += 1
                print(f"{decl.name} UNSUPPORTED {e}")
                continue
            line = f"{decl.name} {verdict.status.upper()}"
            if verdict.reason:
                line += f" ({verdict.reason})"
            print(line)
            if not verdict.realizes:
                failed += 1
    return 1 if failed else 0


def _axiom_id(name: str, schema: str | None):
    text = name if schema is None else f"{name}[{schema}]"
    try:
        return parse_axiom(text)
    except Diagnostic as d:
        print(f"izf: bad axiom {text!r}: {d}", file=sys.stderr)
        raise SystemExit(2)


def cmd_axiom(args) -> int:
    ax = _axiom_id(args.name, args.schema)
    stmt = axiom_statement(ax)
    for raw in args.inst or []:
        try:
            t = parse_term(raw)
        except Diagnostic as d:
            print(f"izf: bad --inst term {raw!r}: {d}", file=sys.stderr)
            return 2
        if not isinstance(stmt, Forall):
            print("izf: statement has no outer quantifier left to instantiate", file=sys.stderr)
            return 2
        stmt = substitute(stmt.body, stmt.binder, t)
    print(print_formula(stmt))
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="izf", description="proof checker and normalizer")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and type-check theorem files")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("normalize", help="reduce proofs under a step budget")
    p.add_argument("files", nargs="+")
    p.add_argument("--fuel", type=int, default=None)
    p.add_argument("--trace", default=None, help="write line-delimited step records here")
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("extract", help="extract computational content")
    p.add_argument("files", nargs="+")
    p.add_argument("--goal", choices=("dp", "witness", "numeral"), required=True)
    p.add_argument("--fuel", type=int, default=None)
    p.add_argument("--paranoid", action="store_true")
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("realize", help="evaluate realizability verdicts")
    p.add_argument("files", nargs="+")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--fuel", type=int, default=None)
    p.add_argument("--pool", type=int, default=8)
    p.set_defaults(fn=cmd_realize)

    p = sub.add_parser("axiom", help="print an instantiated axiom statement")
    p.add_argument("name")
    p.add_argument("--inst", nargs="*", default=None, help="terms for the outer quantifiers")
    p.add_argument("--schema", default=None, help="schema body as 'BINDERS | FORMULA'")
    p.set_defaults(fn=cmd_axiom)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``izf check f | head -1``): a failure
        # like any other, without a traceback.  Python flushes stdout again at
        # exit, so it is pointed at the null device first.
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
