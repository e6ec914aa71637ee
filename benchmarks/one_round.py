"""One round of a benchmark workload, in a fresh process.

    python3 benchmarks/one_round.py WORKLOAD SEED SPAWNED_AT TRACE CHECK

A round sets up (imports, model construction, input generation), runs the
timed phase, reads peak memory, and prints one JSON object on stdout.
SPAWNED_AT is the parent's time.perf_counter() taken just before it started
this process; perf_counter reads CLOCK_MONOTONIC, which all processes share,
so setup_s runs from process start to the first timed operation.  With
TRACE 1 the timed phase runs under the layer profile of tracing.py.  CHECK
is "full" to check every output, or the digest of the outputs of a round
that was checked in full.

Every round is a fresh process because the package keeps state between
calls: the lru_caches in msegment and the memoised models in verify.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "extcrystal"

# verify-all: rank, slot window, height bound; the CLI has no --cases flag,
# so the randomized suites run its default of 10000 cases.
VERIFY_N, VERIFY_WINDOW, VERIFY_HT, VERIFY_CASES = 3, (-1, 0), 3, 10000
# node-deep: rank, operator window, inputs per round, height bound
NODE_N, NODE_WINDOW, NODE_COUNT, NODE_HT = 8, (-1, 1), 720, 60
# base-deep: ranks, inputs per rank per round, height bound, operator window
BASE_RANKS, BASE_COUNT, BASE_HT, BASE_WINDOW = (3, 8), 240, 60, (-1, 1)


def import_package() -> None:
    """Import extcrystal from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(PACKAGE.parent))
    import extcrystal

    if Path(extcrystal.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"extcrystal imported from {extcrystal.__file__}, not {PACKAGE}")


def cache_counts() -> dict[str, list[int]]:
    """[hits, misses] of the msegment caches that exist; missing caches count 0."""
    from extcrystal import msegment

    out = {}
    for name, attrs in (("reduced", ("_reduced_left", "_reduced_right")), ("star", ("star",))):
        hits = misses = 0
        for attr in attrs:
            info = getattr(getattr(msegment, attr, None), "cache_info", None)
            if info is not None:
                hits += info().hits
                misses += info().misses
        out[name] = [hits, misses]
    return out


def reference_ns() -> int:
    """Time of a fixed mix of interpreter work: calls, tuples, dict lookups, sorting."""
    t0 = time.perf_counter_ns()
    table: dict = {}
    stack: list = []
    for j in range(20_000):
        key = (j % 97, j % 89)
        table[key] = table.get(key, 0) + 1
        if stack and stack[-1][0] != key[0] % 2:
            stack.pop()
        else:
            stack.append((key[0] % 2, j))
    sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    return time.perf_counter_ns() - t0


def steps(n: int, window: tuple[int, int]) -> list[tuple[int, int]]:
    return [(i, k) for k in range(window[0], window[1] + 1) for i in range(1, n + 1)]


def timed_calls(calls, clock=time.perf_counter_ns):
    """Run (fn, args) pairs, each timed on its own; returns results and ns per call."""
    results, samples = [], []
    for fn, args in calls:
        t = clock()
        r = fn(*args)
        samples.append(clock() - t)
        results.append(r)
    return results, samples


# ----------------------------------------------------------------------
# verify-all


class StampedLines(io.TextIOBase):
    """A stdout stand-in that times the work between completed lines.

    `verify all` prints one line per suite, so the time from the previous
    line to this one is the suite's.  At each line it also samples the
    reference loop, outside the suite times, so that a long round is sampled
    throughout.
    """

    def __init__(self, reference: list[int]):
        self.lines: list[tuple[str, int]] = []
        self.reference = reference
        self._buf = ""
        self._since = time.perf_counter_ns()

    def write(self, s: str) -> int:
        t = time.perf_counter_ns()
        self._buf += s
        if "\n" in self._buf:
            *done, self._buf = self._buf.split("\n")
            self.lines += [(line, 0) for line in done[:-1]] + [(done[-1], t - self._since)]
            self.reference.append(reference_ns())
            self._since = time.perf_counter_ns()
        return len(s)


_SUITE_LINE = re.compile(r"([\w-]+): (PASS|FAIL) \((?:.* over )?(\d+) items\)")


class VerifyAll:
    """`extcrystal verify all`, called through cli.main with stdout captured."""

    def setup(self, seed: int) -> None:
        from extcrystal import cli
        from bench_inputs import verify_all_sizes

        self.main = cli.main
        lo, hi = VERIFY_WINDOW
        self.argv = ["verify", "all", "--n", str(VERIFY_N), "--window", f"{lo}..{hi}",
                     "--ht", str(VERIFY_HT), "--seed", str(seed), "--jobs", "1"]
        self.sizes = verify_all_sizes(VERIFY_N, VERIFY_WINDOW, VERIFY_HT, VERIFY_CASES)
        self.items = sum(self.sizes.values())

    def timed(self, reference: list[int]) -> dict:
        out = StampedLines(reference)
        with contextlib.redirect_stdout(out):
            self.code = self.main(list(self.argv))
        self.lines = [line for line, _ns in out.lines]
        # each suite is one chunk; a suite the benchmark does not know
        # counts time but no items
        suites = [(m.group(1) if (m := _SUITE_LINE.fullmatch(line)) else "", ns) for line, ns in out.lines]
        return {"items": self.items, "chunks_ns": [ns for _name, ns in suites],
                "chunk_items": [self.sizes.get(name, 0) for name, _ns in suites],
                "suite_s": {name: ns / 1e9 for name, ns in suites if name}, "suite_items": self.sizes}

    def outputs(self):
        return iter(self.lines)

    def check(self) -> list[str]:
        bad = [] if self.code == 0 else [f"exit code {self.code}"]
        reported = {}
        for line in self.lines:
            m = _SUITE_LINE.fullmatch(line)
            if m is None:
                bad.append(f"unexpected output line {line!r}")
                continue
            reported[m.group(1)] = m.group(2), int(m.group(3))
            if m.group(2) != "PASS":
                bad.append(f"suite {m.group(1)} reports {m.group(2)}")
        for name, size in self.sizes.items():
            if name not in reported:
                bad.append(f"suite {name} missing from the output")
            elif reported[name][1] != size:
                bad.append(f"suite {name}: {reported[name][1]} items, expected {size}")
        return bad


# ----------------------------------------------------------------------
# node-deep


class NodeDeep:
    """AffineModel lowering/raising over a window, plus the dictionary round trip."""

    def setup(self, seed: int) -> None:
        from extcrystal.affine import AffineModel, parse_hl_weight
        from bench_inputs import few_node_weights, weight_text

        rng = random.Random(f"node-deep:{seed}")
        self.model = AffineModel(NODE_N)
        self.terms = few_node_weights(rng, NODE_N, NODE_COUNT, NODE_WINDOW, NODE_HT)
        self.lams = [parse_hl_weight(weight_text(t)) for t in self.terms]
        self.steps = steps(NODE_N, NODE_WINDOW)
        self.calls = [(op, (lam, i, k)) for lam in self.lams for i, k in self.steps
                      for op in (self.model.lowering, self.model.raising)]

    def timed(self, reference: list[int]) -> dict:
        model, clock = self.model, time.perf_counter_ns
        self.results, samples = timed_calls(self.calls)
        # the round trip feeds each conversion the previous one's output
        self.trips = []
        for lam in self.lams:
            t = clock()
            c = model.to_extended(lam)
            t_c = clock()
            back = model.to_weight(c)
            t_b = clock()
            self.trips.append((c, back))
            samples += (t_c - t, t_b - t_c)
        return {"items": len(samples), "chunks_ns": samples}

    def outputs(self):
        from extcrystal.affine import format_hl_weight
        from extcrystal.extended import format_ext_element

        yield from map(format_hl_weight, self.results)
        for c, back in self.trips:
            yield format_ext_element(c)
            yield format_hl_weight(back)

    def check(self) -> list[str]:
        from collections import Counter

        from extcrystal.affine import format_hl_weight
        from extcrystal.extended import format_ext_element
        from bench_inputs import alpha, node_weight, parse_weight_text, slotted_nodes

        model, ext, n = self.model, self.model.ext, NODE_N
        bad = []
        results = iter(self.results)
        for terms, lam, (c, back) in zip(self.terms, self.lams, self.trips):
            text = format_hl_weight(lam)
            if back != lam or model.to_extended(back) != c:
                bad.append(f"round trip through the dictionary is not the identity at {text}")
            for i, k in self.steps:
                step = alpha(n, i) if k % 2 else tuple(-x for x in alpha(n, i))
                for op, back_op, sign in ((ext.lowering, model.raising, 1), (ext.raising, model.lowering, -1)):
                    res = next(results)
                    got = parse_weight_text(format_hl_weight(res))
                    # the paper's isomorphism: the node operator is the segment
                    # operator carried through the segment/node dictionary
                    if Counter(dict(got)) != slotted_nodes(n, format_ext_element(op(c, i, k))):
                        bad.append(f"({i},{k}) on {text} differs from the segment model")
                    if back_op(res, i, k) != lam:
                        bad.append(f"({i},{k}) operators are not inverse at {text}")
                    diff = [(p, sign * m) for p, m in got] + [(p, -sign * m) for p, m in terms]
                    if node_weight(n, diff) != step:
                        bad.append(f"({i},{k}) does not move the weight of {text} by {step}")
        return bad


# ----------------------------------------------------------------------
# base-deep


class BaseDeep:
    """MultisegmentCrystal operators and ExtendedCrystal lowering/raising on deep inputs."""

    def setup(self, seed: int) -> None:
        from extcrystal import ExtendedCrystal, MultisegmentCrystal
        from extcrystal.extended import parse_ext_element
        from extcrystal.msegment import parse_multisegment
        from bench_inputs import multisegment_text, stratified_multisegments

        rng = random.Random(f"base-deep:{seed}")
        self.ranks = []
        for n in BASE_RANKS:
            cry = MultisegmentCrystal(n)
            ext = ExtendedCrystal(cry)
            segs = stratified_multisegments(rng, n, BASE_COUNT, BASE_HT)
            texts = [multisegment_text(s) for s in segs]
            ms = [parse_multisegment(t) for t in texts]
            # two-slot elements from consecutive inputs, slot 1 over slot 0
            elems = [parse_ext_element(f"1:{texts[j]};0:{texts[j + 1]}", ext)
                     for j in range(0, len(texts) - 1, 2)]
            self.ranks.append((n, cry, ext, segs, ms, elems))
        self.calls = []
        for n, cry, ext, _segs, ms, elems in self.ranks:
            calls = []
            for m in ms:
                for i in range(1, n + 1):
                    for fn in (cry.lowering, cry.raising, cry.star_lowering, cry.star_raising,
                               cry.epsilon, cry.epsilon_star):
                        calls.append((fn, (m, i)))
                calls.append((cry.star, (m,)))
            for c in elems:
                for i, k in steps(n, BASE_WINDOW):
                    calls.append((ext.lowering, (c, i, k)))
                    calls.append((ext.raising, (c, i, k)))
            self.calls.append(calls)

    def timed(self, reference: list[int]) -> dict:
        self.results, samples = [], []
        for calls in self.calls:
            res, s = timed_calls(calls)
            self.results.append(res)
            samples += s
        return {"items": len(samples), "chunks_ns": samples}

    def outputs(self):
        from extcrystal.extended import ExtElement, format_ext_element
        from extcrystal.msegment import format_multisegment

        for res in self.results:
            for r in res:
                if isinstance(r, ExtElement):
                    yield format_ext_element(r)
                else:
                    yield str(r) if r is None or isinstance(r, int) else format_multisegment(r)

    def check(self) -> list[str]:
        from extcrystal.msegment import format_multisegment
        from bench_inputs import add, alpha, parse_multisegment_text, segments_weight

        bad = []
        for (n, cry, ext, segs, ms, elems), res in zip(self.ranks, self.results):
            res = iter(res)

            def wt(m):
                return segments_weight(n, parse_multisegment_text(format_multisegment(m)))

            for j, (m, s) in enumerate(zip(ms, segs)):
                text, w = format_multisegment(m), segments_weight(n, s)
                eps, eps_star = {}, {}
                lows = {}
                for i in range(1, n + 1):
                    f, e, sf, se, eps[i], eps_star[i] = (next(res) for _ in range(6))
                    lows[i] = f
                    a = alpha(n, i)
                    for fwd, back, up, down, counter, count in (
                        (f, e, cry.raising, cry.lowering, cry.epsilon, eps[i]),
                        (sf, se, cry.star_raising, cry.star_lowering, cry.epsilon_star, eps_star[i]),
                    ):
                        if up(fwd, i) != m or counter(fwd, i) != count + 1 or wt(fwd) != add(w, a, -1):
                            bad.append(f"lowering {i} of {text} is not a crystal step")
                        if (back is None) != (count == 0):
                            bad.append(f"raising {i} of {text} is defined where epsilon is {count}")
                        if back is not None and (down(back, i) != m or wt(back) != add(w, a)):
                            bad.append(f"raising {i} of {text} is not a crystal step")
                st = next(res)
                if cry.star(st) != m or wt(st) != w:
                    bad.append(f"star of {text} is not a weight-preserving involution")
                for i in range(1, n + 1):
                    if cry.epsilon(st, i) != eps_star[i] or cry.epsilon_star(st, i) != eps[i]:
                        bad.append(f"star of {text} does not swap epsilon and epsilon* along {i}")
                # star carries f_i to f*_i; each input checks one index, cycling
                i = 1 + j % n
                if cry.star(lows[i]) != cry.star_lowering(st, i):
                    bad.append(f"star does not carry f_{i} to f*_{i} at {text}")
            for c in elems:
                for i, k in steps(n, BASE_WINDOW):
                    lo, ra = next(res), next(res)
                    sel = ext.branch_selector(c, i, k)
                    if ext.raising(lo, i, k) != c or ext.lowering(ra, i, k) != c:
                        bad.append(f"extended ({i},{k}) operators are not inverse")
                    if ext.branch_selector(lo, i, k) != sel + 1 or ext.branch_selector(ra, i, k) != sel - 1:
                        bad.append(f"extended ({i},{k}) selector does not step by one")
        return bad


WORKLOADS = {"verify-all": VerifyAll, "node-deep": NodeDeep, "base-deep": BaseDeep}


def weighted_quantile(values: list[float], weights: list[int], q: float) -> float:
    """Nearest-rank quantile of values repeated by their weights."""
    pairs = sorted(zip(values, weights))
    rank, seen = q * sum(weights), 0
    for v, w in pairs:
        seen += w
        if seen >= rank:
            return v
    return pairs[-1][0]


def main(argv: list[str]) -> int:
    name, seed, spawned_at, trace, expect = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", argv[4]
    import_package()
    work = WORKLOADS[name]()
    work.setup(seed)
    if trace:
        from tracing import LayerProfile

        profile = LayerProfile()
    caches_before = cache_counts()
    setup_s = time.perf_counter() - spawned_at
    reference = [reference_ns() for _ in range(3)]
    with profile if trace else contextlib.nullcontext():
        timed = work.timed(reference)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reference += [reference_ns() for _ in range(3)]
    caches = {k: [a - b for a, b in zip(v, caches_before[k])] for k, v in cache_counts().items()}
    digest = hashlib.sha256("\n".join(work.outputs()).encode()).hexdigest()
    # rounds of one run repeat the same work: the first checks every output,
    # the others show that they produced the same outputs
    if expect == "full":
        bad = work.check()
    else:
        bad = [] if digest == expect else ["outputs differ from the checked round"]
    chunks = timed.pop("chunks_ns")
    items = timed.pop("chunk_items", None) or [1] * len(chunks)
    per_item = [t / 1e3 / n for t, n in zip(chunks, items) if n]
    weights = [n for n in items if n]
    report = {"setup_s": setup_s, "wall_s": sum(chunks) / 1e9,
              "op_p50_us": weighted_quantile(per_item, weights, 0.5),
              "op_p99_us": weighted_quantile(per_item, weights, 0.99),
              "reference_ns": statistics.median(reference), "peak_rss_mib": peak_kib / 1024,
              "caches": caches, "digest": digest, "failures": bad[:20], **timed}
    if trace:
        report["layers"] = profile.metrics()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
