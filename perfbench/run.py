"""The repository benchmark: time the izf kernel on three seeded workloads.

    python3 perfbench/run.py --workload library --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the kernel from `src/`.
Every measurement runs in a fresh interpreter (`worker.py`) with a fixed
`PYTHONHASHSEED`, because the kernel keeps process-global caches that would
otherwise carry warm state and memory from one measurement into the next.

Workloads (BENCHMARK.json says why each was chosen):
  library  204 single-declaration files: parse, check, normalize to a
           value, extract the numeral, and a print/parse/print round trip.
           One operation is one declaration.
  replay   the non-well-founded term nwf_l2 for 1000 steps on the annotated
           machine, 1000 on its erasure, then detect_cycle.  One operation is
           one such replay.
  realize  eqRefl, eqSymm, eqTrans and lei checked with `reals` over a seeded
           universe of six small depth-2 names.  One operation is the four
           checks on one of four universes, each in its own interpreter;
           each check is also timed on its own.

A run repeats its inputs in rounds for `--seconds`, so each input is timed
several times at different moments; an input's time is the median of its
repetitions.  The host's speed drifts by tens of percent within seconds and
by up to half between minutes, so every time is scaled to a nominal host by
the reference slices timed around it (see `calib.py`); the run also prints
the median slice time, which says how fast the host was.  An input that
fails on any repetition counts as failed and as infinitely slow.  The
result's `attempted` and `failed` count inputs, not repetitions, so they
depend only on the seed.

`--trace 0` prints the end-to-end metrics: `setup_s` (median over several
interpreter starts of the time from launch until the workload is ready),
`op_ms_p50` and `op_ms_p95` (nearest-rank percentiles over the inputs) and
`peak_rss_mb`.  It also prints the workload's own figures (for example
`library.verdict_ms_p95`, `replay.erased_steps_per_s`, `realize.suite_s`),
failures grouped by kind and the input digest.  The replay step rates are
wall-clock; every other time is scaled.

`--trace 1` runs a fixed amount of work in an untraced worker and the same
in a traced one, and prints the per-layer metrics of the traced half plus
`trace_overhead_frac` (traced time over untraced time, minus one, both
scaled).
A `*_self_s` metric is a span's time minus its wrapped children; any other
`*_s` metric is inclusive.  Spans and a record of the run go to
`perfbench/out/`.

The last line of output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The exit code is 0 only when every
measurement process ran to completion.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

import calib
import inputs

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOADS = ("library", "replay", "realize")
SETUP_PROBES = 9
RUN_DEADLINE_S = 170.0
# A traced run runs this many rounds untraced, then traced (a realize round
# checks every universe once).
TRACE_ROUNDS = {"library": 1, "replay": 100, "realize": 1}

END_TO_END_UNITS = {"setup_s": "s", "op_ms_p50": "ms", "op_ms_p95": "ms", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "parser.parse_s": "s",
    "parser.chars_per_s": "1/s",
    "printer.print_s": "s",
    "typecheck.check_s": "s",
    "extraction.extract_s": "s",
    "syntax.alpha_eq_calls": "count",
    "syntax.alpha_eq_s": "s",
    "syntax.substitute_s": "s",
    "reduction.steps": "count",
    "reduction.normalize_self_s": "s",
    "reduction.steps_per_s": "1/s",
    "proof_ops.subst_calls": "count",
    "proof_ops.subst_s": "s",
    "proof_ops.canon_key_calls": "count",
    "proof_ops.canon_key_s": "s",
    "proof_ops.erase_s": "s",
    "realizability.reals_self_s": "s",
    "realizability.normalize_calls": "count",
    "realizability.normalize_s": "s",
    "trace_overhead_frac": "fraction",
    "failed_frac": "fraction",
    "host.ref_slice_ms": "ms",
}


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark run exceeded its deadline")
        return left


def spawn(root: pathlib.Path, deadline: Deadline, argv: list[str]) -> dict:
    """Run one worker to completion and return its JSON summary."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, str(HERE / "worker.py"), *argv, "--started", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=deadline.left())
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker failed with exit code {proc.returncode}: {' '.join(argv)}")
    return json.loads(lines[-1])


def run_workers(args, root: pathlib.Path, deadline: Deadline, traced: bool, rounds: int | None):
    """One measurement phase; returns the worker summaries."""
    base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    tag = f"{args.workload}-s{args.seed}"
    if args.workload != "realize":
        argv = base + (["--rounds", str(rounds)] if rounds is not None else [])
        if traced:
            argv += ["--traced", "--spans", str(OUT / f"spans-{tag}.jsonl")]
        return [spawn(root, deadline, argv)]
    # realize: one interpreter per operation; a round checks every universe once
    summaries = []
    start = time.monotonic()
    r = 0
    while rounds is None or r < rounds:
        for sample in range(inputs.UNIVERSE_SAMPLES):
            if rounds is None and r > 0 and time.monotonic() - start >= args.seconds:
                return summaries
            argv = base + ["--rounds", "1", "--sample", str(sample)]
            if traced:
                argv += ["--traced", "--spans", str(OUT / f"spans-{tag}-u{sample}.jsonl")]
            summary = spawn(root, deadline, argv)
            # the universe's four checks make one operation
            summary["sample"], summary["checks"] = sample, summary["items"]
            summary["items"] = [[next((t for t in ts if isinstance(t, str)), None) or sum(ts)]
                                for ts in zip(*summary["items"])]
            summaries.append(summary)
        r += 1
    return summaries


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def inputs_run(summaries: list[dict]) -> tuple[list[float], dict[str, int]]:
    """Each input's median time in ms over its repetitions, inf if it ever
    failed, and the failed inputs grouped by their first failure's kind."""
    runs: dict[tuple, list] = {}
    for s in summaries:
        for k, ms in enumerate(s["items"]):
            runs.setdefault((s.get("sample"), k), []).extend(ms)
    times, failures = [], {}
    for ms in runs.values():
        kind = next((t for t in ms if isinstance(t, str)), None)
        if kind is None:
            times.append(statistics.median(ms))
        else:
            times.append(math.inf)
            failures[kind] = failures.get(kind, 0) + 1
    return times, failures


def failed_share(times: list[float]) -> float:
    return sum(1 for t in times if t == math.inf) / len(times)


def ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def total_ms(summaries: list[dict]) -> float:
    return sum(t for s in summaries for ms in s["items"] for t in ms if not isinstance(t, str))


def workload_figures(workload: str, summaries: list[dict], typical: list[float]) -> dict:
    """The workload's own figures, named `<workload>.<figure>`."""
    fig: dict[str, tuple[float, str]] = {}
    if workload == "library":
        fig["library.verdict_ms_p50"] = (nearest_rank(typical, 0.5), "ms")
        fig["library.verdict_ms_p95"] = (nearest_rank(typical, 0.95), "ms")
        fig["library.failed_frac"] = (failed_share(typical), "fraction")
    elif workload == "replay":
        extra = summaries[0]["extra"]
        for machine in ("annotated", "erased"):
            rate = extra["steps_per_op"] / statistics.median(extra[f"{machine}_s"])
            fig[f"replay.{machine}_steps_per_s"] = (rate, "1/s")
    else:
        fig["realize.suite_s"] = (nearest_rank(typical, 0.5) / 1000.0, "s")
        for k, name in enumerate(summaries[0]["extra"]["checks"]):
            per = [t for s in summaries for t in s["checks"][k] if not isinstance(t, str)]
            if per:
                fig[f"realize.{name}_s"] = (statistics.median(per) / 1000.0, "s")
    fig[f"{workload}.peak_rss_mb"] = (statistics.median(s["rss_mb"] for s in summaries), "MB")
    return fig


def per_layer(summaries: list[dict]) -> dict[str, float]:
    aggs: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    for s in summaries:
        for name, values in s["trace"]["aggs"].items():
            a = aggs.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                a[i] += v
        for name, n in s["trace"]["counts"].items():
            counts[name] = counts.get(name, 0) + n

    def calls(name: str) -> float:
        return aggs.get(name, [0, 0.0, 0.0])[0]

    def total(name: str) -> float:
        return aggs.get(name, [0, 0.0, 0.0])[1]

    def self_s(name: str) -> float:
        return aggs.get(name, [0, 0.0, 0.0])[2]

    steps = counts.get("steps", 0)
    machine_s = total("reduction.normalize") + total("realizability.normalize")
    return {
        "parser.parse_s": total("parser.parse"),
        "parser.chars_per_s": ratio(counts.get("parse_chars", 0), total("parser.parse")),
        "printer.print_s": total("printer.print"),
        "typecheck.check_s": total("typecheck.check"),
        "extraction.extract_s": total("extraction.extract_numeral"),
        "syntax.alpha_eq_calls": calls("syntax.alpha_eq"),
        "syntax.alpha_eq_s": total("syntax.alpha_eq"),
        "syntax.substitute_s": total("syntax.substitute"),
        "reduction.steps": steps,
        "reduction.normalize_self_s": self_s("reduction.normalize") + self_s("realizability.normalize"),
        "reduction.steps_per_s": ratio(steps, machine_s),
        "proof_ops.subst_calls": calls("proof_ops.subst"),
        "proof_ops.subst_s": total("proof_ops.subst"),
        "proof_ops.canon_key_calls": calls("proof_ops.canon_key"),
        "proof_ops.canon_key_s": total("proof_ops.canon_key"),
        "proof_ops.erase_s": total("proof_ops.erase"),
        "realizability.reals_self_s": self_s("realizability.reals"),
        "realizability.normalize_calls": calls("realizability.normalize"),
        "realizability.normalize_s": total("realizability.normalize"),
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through spawn, which kills its worker


def main() -> int:
    ap = argparse.ArgumentParser(description="izf kernel benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = pathlib.Path.cwd()
    if not (root / "src" / "izf" / "__init__.py").is_file():
        print("perfbench: run from the root of an izf checkout (no src/izf here)", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    OUT.mkdir(exist_ok=True)
    deadline = Deadline(RUN_DEADLINE_S)
    probe = ["--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    setups = [spawn(root, deadline, probe)["setup_s"] for _ in range(SETUP_PROBES)]

    if args.trace:
        rounds = TRACE_ROUNDS[args.workload]
        plain = run_workers(args, root, deadline, False, rounds)
        traced = run_workers(args, root, deadline, True, rounds)
        values = per_layer(traced)
        values["trace_overhead_frac"] = ratio(total_ms(traced), total_ms(plain)) - 1.0
        summaries = plain + traced
        units = PER_LAYER_UNITS
    else:
        summaries = run_workers(args, root, deadline, False, None)
        values, units = {}, END_TO_END_UNITS
    typical, failures = inputs_run(summaries)
    attempted, failed = len(typical), sum(failures.values())
    ref_slice_ms = statistics.median(r for s in summaries for r in s["ref_s"]) * 1000.0
    values["failed_frac"] = failed_share(typical)
    values["host.ref_slice_ms"] = ref_slice_ms
    values["setup_s"] = statistics.median(setups + [s["setup_s"] for s in summaries])
    values["op_ms_p50"] = nearest_rank(typical, 0.5)
    values["op_ms_p95"] = nearest_rank(typical, 0.95)
    values["peak_rss_mb"] = statistics.median(s["rss_mb"] for s in summaries)
    figures = workload_figures(args.workload, summaries, typical)

    digests = sorted({s["digest"] for s in summaries})
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "input_digest": "-".join(digests),
        "host_ref_slice_ms": ref_slice_ms,
        "attempted": attempted,
        "failures": failures,
        "failure_sites": {k: v for s in summaries for k, v in s["failure_sites"].items()},
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        "absent_bindings": sorted({a for s in summaries if "trace" in s for a in s["trace"]["absent"]}),
        "spans_not_stored": sum(s["trace"]["dropped"] for s in summaries if "trace" in s),
    }
    (OUT / f"run-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"# {args.workload} seed={args.seed} inputs={record['input_digest']} operations={attempted}")
    print(f"# host.ref_slice_ms {ref_slice_ms:.4f} ms (nominal {calib.NOMINAL_S * 1000.0:g} ms)")
    print(f"# failures {json.dumps(failures, sort_keys=True)} first raised at {json.dumps(record['failure_sites'])}")
    if record["absent_bindings"]:
        print(f"# absent bindings, not traced: {', '.join(record['absent_bindings'])}")
    for name, (v, unit) in figures.items():
        print(f"{name} {v:.6g} {unit}")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    result = {
        "correct": not any(kind.startswith("mismatch:") for kind in failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
