"""Benchmark of extcrystal: one workload, measured for a fixed time.

    python3 benchmarks/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Runs rounds of the workload, each in a fresh process (one_round.py), until
--seconds have passed.  The rounds of one run repeat the same seeded work:
the first checks every output, the later ones that their outputs are the
same.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  A traced run alternates untraced and
traced rounds, so it reports its own overhead.  Details of every round go to
benchmarks/results/.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-all", "node-deep", "base-deep")
TIME_LIMIT_S = 170
# time of one_round.reference_ns on a quiet core of the reference
# machine (2-vCPU Intel Xeon VM, Python 3.11.7)
REFERENCE_NS = 11_500_000

sys.path.insert(0, str(HERE))
from bench_inputs import VERIFY_SUITES  # noqa: E402
from tracing import FUNCTIONS, MODULES  # noqa: E402

# name -> (unit, better); the order is the order of the output
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "op_p50_us": ("us", "lower"),
    "op_p99_us": ("us", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}
PER_LAYER = {
    **{f"{m}.calls": ("count", "lower") for m in MODULES},
    **{f"{m}.self_s": ("s", "lower") for m in MODULES},
    **{name: ("us", "lower") for name in FUNCTIONS},
    "signature.symbols_per_call": ("count", "lower"),
    "msegment.reduced_cache.hit_ratio": ("ratio", "higher"),
    "msegment.star_cache.hit_ratio": ("ratio", "higher"),
    **{f"verify.{s}.items_per_s": ("1/s", "higher") for s in VERIFY_SUITES},
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def run_round(workload: str, seed: int, trace: bool, check: str, deadline: float) -> dict:
    spawned_at = time.perf_counter()
    argv = [sys.executable, str(HERE / "one_round.py"), workload, str(seed), repr(spawned_at),
            "1" if trace else "0", check]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - spawned_at))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"round exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def hit_ratio(rounds: list[dict], cache: str) -> float:
    hits = sum(r["caches"][cache][0] for r in rounds)
    lookups = hits + sum(r["caches"][cache][1] for r in rounds)
    return hits / lookups if lookups else 0.0


def median_of(rounds: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def scaled(rounds: list[dict], key: str) -> float:
    """Median over rounds of a round's figure in seconds of the reference machine.

    Each round times a fixed reference loop next to its work, and its figures
    are scaled by REFERENCE_NS over the loop's median time in that round.
    Other load on the machine slows this code up to twofold, in bursts from a
    fraction of a second to minutes; the scale takes that back out.
    """
    return statistics.median(r[key] * REFERENCE_NS / r["reference_ns"] for r in rounds)


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    wall = scaled(rounds, "wall_s")
    return {
        "setup_s": scaled(rounds, "setup_s"),
        "wall_s": wall,
        "items_per_s": rounds[0]["items"] / wall,
        "op_p50_us": scaled(rounds, "op_p50_us"),
        "op_p99_us": scaled(rounds, "op_p99_us"),
        "peak_rss_mib": median_of(rounds, "peak_rss_mib"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    layers = [r["layers"] for r in traced]
    out = {name: statistics.median(lay[name] for lay in layers) for name in layers[0]}
    out["msegment.reduced_cache.hit_ratio"] = hit_ratio(traced, "reduced")
    out["msegment.star_cache.hit_ratio"] = hit_ratio(traced, "star")
    sizes = plain[0].get("suite_items", {})
    for s in VERIFY_SUITES:
        rates = [sizes[s] / r["suite_s"][s] * r["reference_ns"] / REFERENCE_NS
                 for r in plain if r.get("suite_s", {}).get(s)]
        out[f"verify.{s}.items_per_s"] = statistics.median(rates) if rates else 0.0
    base = median_of(plain, "wall_s")
    out["trace.overhead_s"] = median_of(traced, "wall_s") - base
    out["trace.overhead_pct"] = 100 * out["trace.overhead_s"] / base
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (ROOT / "src" / "extcrystal" / "__init__.py").is_file():
        print(f"error: no extcrystal package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    deadline = start + TIME_LIMIT_S
    plain: list[dict] = []
    traced: list[dict] = []
    digest = "full"
    # a traced run alternates untraced and traced rounds, untraced first
    while not plain or (args.trace and len(traced) < len(plain)) or time.perf_counter() - start < args.seconds:
        trace = bool(args.trace) and len(traced) < len(plain)
        try:
            r = run_round(args.workload, args.seed, trace, digest, deadline)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
            return 1
        digest = r["digest"]
        (traced if trace else plain).append(r)

    rounds = plain + traced
    failures = [msg for r in rounds for msg in r["failures"]]
    if args.trace:
        values, table = per_layer(plain, traced), PER_LAYER
    else:
        values, table = end_to_end(plain), END_TO_END
    metrics = {name: {"value": values[name], "unit": table[name][0]} for name in table}
    result = {
        "correct": not failures,
        "attempted": sum(r["items"] for r in rounds),
        # an operation that raises ends its round, and the run, without a result
        "failed": 0,
        "metrics": metrics,
    }

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "items_per_round": plain[0]["items"], "untraced_rounds": len(plain), "result": result,
              "rounds": rounds}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))

    for msg in failures[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"{args.workload}: {len(plain)} untraced and {len(traced)} traced rounds of "
          f"{plain[0]['items']} items; times are medians over the untraced rounds")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
