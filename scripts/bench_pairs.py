#!/usr/bin/env python3
"""Run the repository benchmark in alternating pairs on two checkouts and
write the paired report, BENCH_<pr>.json.

Usage:
    python scripts/bench_pairs.py PARENT CHANGE --pr 21 \\
        [--workload realize ...] [--seed 21 ...] [--pairs 10] [--seconds 36] \\
        [--trace 0] [--out BENCH_21.json] [--append]

PARENT and CHANGE are the roots of two izf checkouts.  For each seed and
each workload the script runs `perfbench/run.py` of each checkout, from that
checkout, unchanged, `--pairs` times; pair i runs the parent first when i is
even and the change first when i is odd, so a drift of the host's speed
falls on both sides alike.

Both sides run in one bytecode-cache state, that of a fresh checkout: the
script refuses a checkout whose `src/` or `perfbench/` holds a `__pycache__`
directory, and runs with `PYTHONDONTWRITEBYTECODE=1`, so every interpreter
of either side compiles the kernel and the benchmark from source (the
standard library's cache is the interpreter's own, the same for both).

The report holds every run's result line (`correct`, `attempted`, `failed`
and the raw `metrics`) and, per workload, seed, trace mode and metric, the
median of each side, the parent's interquartile range, the relative change
of the medians, the number of pairs the change won (by the metric's
`better` direction in the parent's `BENCHMARK.json`, `lower` if it names
none), and whether the gap between the medians exceeds the parent's IQR.
With `--append` the runs are added to those of an existing report and the
summary is recomputed over all of them, so one report can gather runs of
several invocations (for example a second seed).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def _commit(root: pathlib.Path) -> str | None:
    out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def _directions(root: pathlib.Path) -> dict[str, str]:
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("better", "lower") for key in ("end_to_end", "per_layer") for m in spec.get(key, [])}


def _cached(root: pathlib.Path) -> list[str]:
    """The bytecode caches under root's kernel and benchmark sources."""
    return [str(p) for d in ("src", "perfbench") for p in sorted((root / d).rglob("__pycache__"))]


def run_once(root: pathlib.Path, workload: str, seed: int, seconds: float, trace: int, env: dict) -> dict:
    """One perfbench run from ``root``: its result line, or why there is none."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": f"exit {out.returncode}: {out.stderr.strip()[-500:]}"}
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    result["exit"] = out.returncode
    return result


def _iqr(xs: list[float]) -> float:
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]


def summarize(runs: list[dict], directions: dict[str, str]) -> list[dict]:
    """Per workload, seed, trace mode and metric: medians, the parent's IQR
    and the pairs the change won."""
    groups: dict[tuple, dict[int, dict[str, dict]]] = {}
    for r in runs:
        if "metrics" in r:
            groups.setdefault((r["workload"], r["seed"], r["trace"]), {}).setdefault(r["pair"], {})[r["side"]] = r
    out = []
    for (workload, seed, trace), pairs in sorted(groups.items()):
        full = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        names = sorted({k for p in full for r in p.values() for k in r["metrics"]})
        for name in names:
            both = [(p["parent"]["metrics"].get(name), p["change"]["metrics"].get(name)) for p in full]
            both = [(a, b) for a, b in both if a is not None and b is not None]
            if not both:
                continue
            parent, change = [a for a, _ in both], [b for _, b in both]
            better = directions.get(name, "lower")
            won = sum((b < a) if better == "lower" else (b > a) for a, b in both)
            pm, cm, iqr = statistics.median(parent), statistics.median(change), _iqr(parent)
            out.append({
                "workload": workload, "seed": seed, "trace": trace, "metric": name, "better": better,
                "pairs": len(both), "parent_median": pm, "change_median": cm, "parent_iqr": iqr,
                "change_frac": (cm / pm - 1.0) if pm else None, "change_wins": won,
                "gap_exceeds_parent_iqr": abs(cm - pm) > iqr,
            })
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=pathlib.Path)
    ap.add_argument("change", type=pathlib.Path)
    ap.add_argument("--pr", type=int, required=True, help="the number in the report's name, BENCH_<pr>.json")
    ap.add_argument("--workload", action="append", choices=("library", "replay", "realize"))
    ap.add_argument("--seed", type=int, action="append")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=pathlib.Path, help="the report's path (default BENCH_<pr>.json)")
    ap.add_argument("--append", action="store_true", help="add to the runs of an existing report")
    args = ap.parse_args()

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, root in roots.items():
        if not (root / "perfbench" / "run.py").is_file():
            print(f"bench_pairs: {side} checkout {root} has no perfbench/run.py", file=sys.stderr)
            return 2
        if _cached(root):
            print(f"bench_pairs: {side} checkout holds bytecode caches: {', '.join(_cached(root))}", file=sys.stderr)
            return 2
    out_path = args.out or pathlib.Path(f"BENCH_{args.pr}.json")
    report = json.loads(out_path.read_text()) if args.append and out_path.exists() else {"pr": args.pr, "runs": []}
    report.setdefault("invocations", []).append({
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "commits": {side: _commit(root) for side, root in roots.items()},
        "workloads": args.workload or ["realize"], "seeds": args.seed or [21], "pairs": args.pairs,
        "seconds": args.seconds, "trace": args.trace,
        "host": {"platform": platform.platform(), "python": platform.python_version(), "cpus": os.cpu_count()},
    })

    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    for seed in args.seed or [21]:
        for workload in args.workload or ["realize"]:
            for i in range(args.pairs):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    result = run_once(roots[side], workload, seed, args.seconds, args.trace, env)
                    result.update(side=side, workload=workload, seed=seed, trace=args.trace, pair=i,
                                  invocation=len(report["invocations"]) - 1)
                    report["runs"].append(result)
                    shown = result.get("metrics", {}).get("op_ms_p50", result.get("error"))
                    print(f"{workload} seed={seed} pair={i} {side}: op_ms_p50 {shown}", flush=True)

    # Pairs of different invocations are kept apart by numbering them per invocation.
    runs = [dict(r, pair=(r["invocation"], r["pair"])) for r in report["runs"]]
    report["summary"] = summarize(runs, _directions(roots["parent"]))
    out_path.write_text(json.dumps(report, indent=1) + "\n")
    for row in report["summary"]:
        if row["metric"] in ("op_ms_p50", "op_ms_p95", "setup_s", "peak_rss_mb") or args.trace:
            frac = "" if row["change_frac"] is None else f" ({row['change_frac']:+.1%})"
            print(f"{row['workload']} seed={row['seed']} {row['metric']}: {row['parent_median']:.4g} -> "
                  f"{row['change_median']:.4g}{frac}, change won {row['change_wins']}/{row['pairs']}, "
                  f"parent IQR {row['parent_iqr']:.3g}")
    return 0 if all("metrics" in r for r in report["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
