"""One benchmark process: set up a workload, run it, print a JSON summary.

`run.py` starts a fresh interpreter for every measurement, with
`PYTHONHASHSEED` fixed and the checkout's `src` on `PYTHONPATH`, so no warm
state (the kernel keeps process-global caches) carries from one measurement
into the next.  Set-up covers imports, input generation, parsing the
replay term, the realizer pool and the universe; `--started` passes the
launch time so that `setup_s` includes interpreter start.

    python3 perfbench/worker.py --workload library --seed 1 --seconds 10
    python3 perfbench/worker.py --workload realize --seed 1 --sample 0 --rounds 1 \\
        --traced --spans perfbench/out/spans.jsonl

Every time it reports is scaled to the nominal host by `calib`: each timed
call sits between two bursts of reference slices.  The output is one JSON
line: `setup_s`, and unless `--setup-only`, every item's operation times in
ms (the failure's kind in place of a time where it failed), where each kind
was first raised, the reference slice times, peak RSS, the input digest and,
when traced, the tracer's aggregates.  A kind starting with `mismatch:` is a
wrong answer; any other kind is the name of the exception an operation
raised.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time
import traceback
from types import SimpleNamespace

import calib
import inputs
from tracer import Tracer

REPLAY_STEPS = 1000  # steps per machine in one replay operation
REPLAY_CYCLE_FUEL = 100
REALIZE_FUEL = 10**4
REALIZE_POOL = 8


def _api() -> SimpleNamespace:
    """The public functions the benchmark calls; the tracer wraps them here."""
    from izf import extraction, parser, printer, proof_ops, realizability, reduction, typecheck

    return SimpleNamespace(
        parse=parser.parse,
        parse_formula=parser.parse_formula,
        check=typecheck.check,
        normalize=reduction.normalize,
        detect_cycle=reduction.detect_cycle,
        extract_numeral=extraction.extract_numeral,
        print_formula=printer.print_formula,
        print_proof=printer.print_proof,
        erase=proof_ops.erase,
        reals=realizability.reals,
    )


def _count_parse(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.count("parse_chars", len(args[0]))


def _count_steps(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.count("steps", getattr(result, "steps", 0))


def install_tracer(tracer: Tracer, api: SimpleNamespace) -> None:
    """Wrap the benchmark's own calls and the kernel's cross-module bindings."""
    import izf.extraction as ex
    import izf.realizability as rz
    import izf.reduction as rd
    import izf.typecheck as tc

    tracer.wrap(api, "parse", "parser.parse", _count_parse)
    tracer.wrap(api, "print_formula", "printer.print")
    tracer.wrap(api, "print_proof", "printer.print")
    tracer.wrap(api, "check", "typecheck.check")
    tracer.wrap(api, "extract_numeral", "extraction.extract_numeral")
    tracer.wrap(api, "normalize", "reduction.normalize", _count_steps)
    tracer.wrap(api, "detect_cycle", "reduction.detect_cycle")
    tracer.wrap(api, "erase", "proof_ops.erase")
    tracer.wrap(api, "reals", "realizability.reals")
    tracer.wrap(ex, "normalize", "reduction.normalize", _count_steps)
    tracer.wrap(rz, "normalize", "realizability.normalize", _count_steps)
    for mod in (tc, rd):
        tracer.wrap(mod, "alpha_eq", "syntax.alpha_eq")
    for name in ("substitute", "substitute_many"):
        tracer.wrap(tc, name, "syntax.substitute")
    for mod, names in (
        (rd, ("subst_proof", "subst_proof_term", "esubst_prop", "esubst_term")),
        (tc, ("subst_proof", "subst_proof_term")),
        (rz, ("esubst_prop", "esubst_term")),
    ):
        for name in names:
            tracer.wrap(mod, name, "proof_ops.subst")
    tracer.wrap(rz, "canon_key", "proof_ops.canon_key")
    tracer.wrap(rz, "canon_repr", "proof_ops.canon_key")
    tracer.wrap(rd, "canon", "proof_ops.canon_key")


# ---------------------------------------------------------------------------
# Workloads: each set-up returns (operations, run one operation, input digest)


def _render(api: SimpleNamespace, decl) -> str:
    formula, proof = api.print_formula(decl.formula), api.print_proof(decl.proof)
    return f"thm {decl.name} : {formula} :=\n  {proof} ."


def setup_library(api: SimpleNamespace, args, extra: dict):
    items = inputs.library_items(args.seed)

    def op(item: inputs.Item) -> str | None:
        tf = api.parse(item.text)
        if len(tf.declarations) != 1:
            return "mismatch:declarations"
        decl = tf.declarations[0]
        api.check((), decl.proof, decl.formula, nwf=tf.nwf)
        if api.normalize(decl.proof, item.step_bound).status != "value":
            return "mismatch:normalize"
        if item.numeral is not None and api.extract_numeral(decl.proof) != item.numeral:
            return "mismatch:extract_numeral"
        first = _render(api, decl)
        again = api.parse(first).declarations
        if len(again) != 1 or _render(api, again[0]) != first:
            return "mismatch:round_trip"
        return None

    return items, op, inputs.digest([i.text for i in items])


def setup_replay(api: SimpleNamespace, args, extra: dict):
    text = inputs.replay_text()
    tf = api.parse(text)
    proof = tf.declarations[0].proof
    api.check((), proof, tf.declarations[0].formula, nwf=tf.nwf)
    extra["steps_per_op"] = REPLAY_STEPS
    annotated_s, erased_s = extra.setdefault("annotated_s", []), extra.setdefault("erased_s", [])
    clock = time.perf_counter

    def op(_: object) -> str | None:
        t0 = clock()
        out = api.normalize(proof, REPLAY_STEPS)
        t1 = clock()
        erased = api.erase(proof)
        t2 = clock()
        eout = api.normalize(erased, REPLAY_STEPS)
        t3 = clock()
        annotated_s.append(t1 - t0)
        erased_s.append(t3 - t2)
        if (out.status, out.steps) != ("fuel", REPLAY_STEPS):
            return "mismatch:annotated_fuel"
        if (eout.status, eout.steps) != ("fuel", REPLAY_STEPS):
            return "mismatch:erased_fuel"
        if api.detect_cycle(proof, REPLAY_CYCLE_FUEL) != (0, 3):
            return "mismatch:detect_cycle"
        return None

    return [None], op, inputs.digest(text, REPLAY_STEPS, REPLAY_CYCLE_FUEL)


def setup_realize(api: SimpleNamespace, args, extra: dict):
    import izf.realizers as realizers
    from izf.realizability import RealizCfg, default_realizer_pool, enumerate_names

    names = enumerate_names(inputs.UNIVERSE_DEPTH, inputs.UNIVERSE_POPULATION)
    idx = inputs.universe_indices(args.seed, args.sample)
    cfg = RealizCfg(
        fuel=REALIZE_FUEL,
        universe=tuple(names[i] for i in idx),
        realizers=default_realizer_pool()[:REALIZE_POOL],
        truncated=False,
    )
    suite = [
        (name, getattr(realizers, ctor)(), api.parse_formula(stmt))
        for name, ctor, stmt in inputs.REALIZE_SUITE
    ]

    def op(check) -> str | None:
        name, m, phi = check
        verdict = api.reals(m, phi, {}, cfg)
        return None if verdict.status == "realizes" else f"mismatch:{name}_{verdict.status}"

    extra["checks"] = [name for name, _, _ in suite]
    return suite, op, inputs.digest(args.seed, args.sample, len(names), idx, inputs.REALIZE_SUITE)


SETUPS = {"library": setup_library, "replay": setup_replay, "realize": setup_realize}


def measure(op, items: list, seconds: float, rounds: int | None, tracer: Tracer | None,
            refs: list[float]):
    """Run `items` in rounds: `rounds` of them, or as many as `seconds` allow.

    The first round always completes; after it the run stops as soon as the
    time is up.  A burst of reference slices follows every operation; `refs`
    starts with the burst before the first one and gets every later burst.
    Returns each item's scaled times in ms (the failure's kind where it
    failed) and where each kind of exception was first raised.  An exception
    ends only its own operation.
    """
    times: list[list[float | str]] = [[] for _ in items]
    sites: dict[str, str] = {}
    before = refs[-calib.BURST:]
    clock = time.perf_counter
    start = clock()
    op_id = 0
    r = 0
    while rounds is None or r < rounds:
        for k, item in enumerate(items):
            if rounds is None and r > 0 and clock() - start >= seconds:
                return times, sites
            if tracer is not None:
                tracer.op_id = op_id
            t0 = clock()
            try:
                bad = op(item)
            except Exception as e:  # a crash fails this operation only
                bad = type(e).__name__
                frame = traceback.extract_tb(e.__traceback__)[-1]
                sites.setdefault(bad, f"{pathlib.Path(frame.filename).name}:{frame.lineno} in {frame.name}")
            dt = clock() - t0
            after = calib.burst()
            times[k].append(bad or calib.scale(dt, before + after) * 1000.0)
            refs += after
            before = after
            op_id += 1
        r += 1
    return times, sites


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--rounds", type=int, default=None, help="run exactly this many rounds")
    ap.add_argument("--sample", type=int, default=0, help="which realize universe")
    ap.add_argument("--started", type=float, default=None, help="time.monotonic() at launch")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--spans", default=None, help="write the spans here (JSON lines)")
    args = ap.parse_args()
    started = args.started if args.started is not None else time.monotonic()

    api = _api()
    extra: dict = {}
    items, op, digest = SETUPS[args.workload](api, args, extra)
    setup_s = time.monotonic() - started
    calib.reference_slice()  # the first slice in a process also grows its heap
    refs = calib.burst()
    result: dict = {"setup_s": calib.scale(setup_s, refs)}
    if not args.setup_only:
        tracer = None
        if args.traced:
            tracer = Tracer()
            install_tracer(tracer, api)
        times, sites = measure(op, items, args.seconds, args.rounds, tracer, refs)
        if tracer is not None:
            tracer.unwrap()
            result["trace"] = tracer.summary()
            if args.spans:
                tracer.dump(args.spans)
        result.update(
            items=times,
            failure_sites=sites,
            digest=digest,
            extra=extra,
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    result["ref_s"] = refs
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
