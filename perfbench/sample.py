"""One benchmark sample, run in a fresh process.

    python3 perfbench/sample.py --workload NAME --seed N --fill
    python3 perfbench/sample.py --workload NAME --seed N --spawned-at T [--trace]

T is the parent's time.monotonic() at spawn. With --fill the process fills
the disk cache named by TROPGC_CACHE and prints one JSON line: the time from
spawn to the end of the fill, and the reference time (see reference_s).
Otherwise it runs the workload's timed section once, checks the answer, and
prints one JSON line: wall and CPU time of the timed section, start-up time
from spawn, peak resident set, the reference time around the timed section,
whether the answer was right and, with --trace, the per-layer metrics of
perfbench/spans.py. A fresh process starts with an empty in-memory
canonical-form memo, so no sample warms the next.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import random
import resource
import sys
import time
import warnings
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _point(rng: random.Random, g: int, ranges):
    """A weight datum with entry i drawn strictly inside ranges[i]. Each
    workload picks ranges that lie in one chamber, so the signature, and
    with it the work, does not depend on the draw."""
    import tropgc
    return tropgc.WeightDatum(g, tuple(
        lo + (hi - lo) * Fraction(rng.randint(1, 99_999), 100_000)
        for lo, hi in ranges))


def _ranges(*groups):
    """Entry ranges from (count, lo, hi) groups."""
    return [(Fraction(lo), Fraction(hi))
            for count, lo, hi in groups for _ in range(count)]


def _classical(n: int):
    """All-Plus chamber: every pair sums past 1."""
    return _ranges((n, "1/2", 1))


def _heavy_light(heavy: int, light: int):
    """A subset is Plus iff it holds a heavy entry and one more: h + l > 1,
    while at most 3 light entries sum below 1 (3 * 3/10 < 1)."""
    return _ranges((heavy, "9/10", 1), (light, "1/10", "3/10"))


def _fill(cases) -> None:
    import tropgc
    for g, a in cases:
        for m in range(g, tropgc.max_edges(g, a.n) + 1):
            tropgc.enumerate_stable_graphs(g, a, m, pure_only=True)


def _homologies(cases):
    import tropgc
    return [tropgc.homology(tropgc.build_graph_complex(g, a)) for g, a in cases]


def _only(betti: dict, nonzero: dict) -> bool:
    """Betti numbers are `nonzero` where it says and zero elsewhere."""
    return (set(nonzero) <= set(betti)
            and all(v == nonzero.get(k, 0) for k, v in betti.items()))


# Samples are kept short (about 0.5 to 1.5 s) so that a run holds ten or
# more of them: single samples on a shared host spread by about a tenth.

# --- enum-cold-g2n3-g1n4 ---------------------------------------------------
# Cold disk cache, classical chambers: enumeration and canonical forms are
# nearly all of the time, linalg about 1%.
# (2,3): every Betti number is zero (the README's negative result).
# (1,4): b_2 = 3 = 3!/2, the Chan-Galatius-Payne closed form (n-1)!/2.

def _enum_inputs(rng):
    return [(2, _point(rng, 2, _classical(3))),
            (1, _point(rng, 1, _classical(4)))]


def _enum_check(_inputs, result) -> bool:
    h23, h14 = result
    return (_only(h23.betti, {})
            and _only(h14.betti, {2: math.factorial(3) // 2}))


# --- rank-warm-g0n7-hl4 -----------------------------------------------------
# Warm disk cache, heavy/light chamber of (0,7) with 4 heavy and 3 light
# markings: exact elimination is over half of the time. Generator counts and
# b_4 = 54 are pinned from the output at the commit that defined the
# benchmark.

def _rank_inputs(rng):
    return [(0, _point(rng, 0, _heavy_light(4, 3)))]


def _rank_check(_inputs, result) -> bool:
    (h,) = result
    return (h.dims == {0: 1, 1: 52, 2: 405, 3: 930, 4: 630}
            and _only(h.betti, {4: 54}))


# --- spectral-warm-g1n5 -----------------------------------------------------
# Warm disk cache: the page path (kernel_basis, subspace_dims) dominates and
# rank does little. Chain at (1,5): the lowest chamber, the floor chamber
# Plus iff |S| >= 4, and the heavy/light chamber with 2 heavy markings.
# E^inf and b_3 = 4 are pinned from the output at the commit that defined
# the benchmark; the sample also checks sum over p of E^inf = Betti.

def _spectral_inputs(rng):
    return [_point(rng, 1, _ranges((5, 0, "1/5"))),
            _point(rng, 1, _ranges((5, "1/4", "1/3"))),
            _point(rng, 1, _heavy_light(2, 3))]


def _spectral_fill_cases(inputs):
    return [(1, inputs[-1])]


def _spectral_run(chain):
    import tropgc
    return tropgc.decomposition_report(tropgc.filtered_from_raw(1, chain))


def _spectral_check(_inputs, report) -> bool:
    einf = report.einfinity.nonzero()
    sums = {k: sum(v for (p, q), v in einf.items() if p + q == k)
            for k in report.betti}
    return (report.ok and einf == {(1, 2): 1, (3, 0): 3}
            and sums == report.betti and _only(report.betti, {3: 4}))


# --- chambers-g1n4-n7 -------------------------------------------------------
# No disk cache: the chamber census (Fourier-Motzkin feasibility and orbit
# grouping) and comparisons up to S_7. Each pair is built so that its
# signature does not depend on the draw, which fixes the work:
#   a: two heavy entries in [0.80, 0.85] and five light in [0.010, 0.024];
#      a subset is Plus iff it holds both heavy entries (0.85 + 5 * 0.024 < 1).
#   b: seven entries in [0.26, 0.32]; Plus iff |S| >= 4 (3 * 0.32 < 1 <
#      4 * 0.26). a and b are Incomparable under every permutation: a is
#      Plus on its heavy pair, where b is Minus, and Minus on four light
#      entries, where b is Plus. All 7! permutations are scanned.
#   b = sigma(a) with sigma moving the heavy entries to positions 6 and 7:
#      Equal, and the first witness in lexicographic order is
#      (3, 4, 5, 6, 7, 1, 2).
# The census of (1,4) has 96 chambers in 17 orbits, pinned from the output at
# the commit that defined the benchmark.

CHAMBER_N = 7


def _distinct(rng, k, lo, hi, used):
    out = []
    while len(out) < k:
        x = Fraction(rng.randint(lo, hi), 10_000)
        if x not in used:
            used.add(x)
            out.append(x)
    return out


def _chambers_inputs(rng):
    import tropgc
    n = CHAMBER_N
    pairs = []
    for relation in ("Incomparable", "Incomparable", "Equal", "Equal"):
        used: set = set()
        a = tropgc.WeightDatum(1, tuple(_distinct(rng, 2, 8000, 8500, used)
                                        + _distinct(rng, n - 2, 100, 240, used)))
        if relation == "Incomparable":
            b = tropgc.WeightDatum(1, tuple(_distinct(rng, n, 2600, 3200, used)))
        else:
            lights = list(range(3, n + 1))
            rng.shuffle(lights)
            heavy = [1, 2]
            rng.shuffle(heavy)
            b = tropgc.apply_permutation(lights + heavy, a)
        pairs.append((relation, a, b))
    return pairs


def _chambers_run(pairs):
    import tropgc
    census = tropgc.enumerate_chambers(1, 4)
    compared = []
    for _, a, b in pairs:
        counters: dict = {}
        res = tropgc.compare_up_to_symmetry(a, b, counters=counters)
        compared.append((res, counters))
    return census, compared


def _lex_rank(perm) -> int:
    """Position of a permutation in lexicographic order, from 0."""
    rest = sorted(perm)
    rank = 0
    for i, x in enumerate(perm):
        k = rest.index(x)
        rank += k * math.factorial(len(perm) - 1 - i)
        rest.pop(k)
    return rank


def _chambers_check(pairs, result) -> bool:
    import tropgc
    census, compared = result
    if len(census.chambers) != 96 or len(census.orbits) != 17:
        return False
    if sum(len(o) for o in census.orbits) != len(census.chambers):
        return False
    walls = len(tropgc.wall_set(1, CHAMBER_N).subsets)
    for (relation, a, b), (res, counters) in zip(pairs, compared):
        if res.relation != relation:
            return False
        if relation == "Incomparable":
            scanned = math.factorial(CHAMBER_N)
        else:
            moved = tropgc.apply_permutation(res.witness, a)
            if tropgc.signature(moved).signs != tropgc.signature(b).signs:
                return False
            # Entries are distinct, so no permutation is pruned.
            scanned = _lex_rank(res.witness) + 1
        if counters != {"permutations": scanned,
                        "subset_comparisons": scanned * walls}:
            return False
    return True


# name -> (inputs from an rng, cases to fill the cache with or None,
#          timed section, answer check)
WORKLOADS = {
    "enum-cold-g2n3-g1n4": (_enum_inputs, None, _homologies, _enum_check),
    "rank-warm-g0n7-hl4": (_rank_inputs, lambda cases: cases, _homologies,
                           _rank_check),
    "spectral-warm-g1n5": (_spectral_inputs, _spectral_fill_cases,
                           _spectral_run, _spectral_check),
    "chambers-g1n4-n7": (_chambers_inputs, None, _chambers_run,
                         _chambers_check),
}


# The reference work: fixed, pure Python, independent of tropgc, with the
# operation mix of the workloads (sparse fraction-free elimination on
# integer dict rows, brute-force canonical forms over vertex permutations,
# Fraction sums). Its time gauges the host's speed at the moment.

def _ref_eliminate(rows: list[dict[int, int]]) -> int:
    rank = 0
    while rows:
        pivot = min(rows, key=len)
        rows.remove(pivot)
        c = min(pivot)
        p = pivot[c]
        rank += 1
        kept = []
        for r in rows:
            f = r.get(c)
            if f is None:
                kept.append(r)
                continue
            new = {j: v for j in set(r) | set(pivot)
                   if (v := p * r.get(j, 0) - f * pivot.get(j, 0))}
            if new:
                g = 0
                for v in new.values():
                    g = math.gcd(g, v)
                kept.append({j: v // g for j, v in new.items()})
        rows = kept
    return rank


def _ref_canonical(edges: list[tuple[int, int]], nv: int) -> tuple:
    return min(tuple(sorted((min(p[u], p[v]), max(p[u], p[v]))
                            for u, v in edges))
               for p in itertools.permutations(range(nv)))


def reference_s() -> float:
    """Time of the reference work. The collector is off, so the heap the
    workload left behind does not slow it."""
    rng = random.Random(0)
    rows = [{j: rng.choice((-2, -1, 1, 1, 2, 3))
             for j in rng.sample(range(100), 4)} for _ in range(120)]
    graphs = [[tuple(rng.sample(range(6), 2)) for _ in range(7)]
              for _ in range(12)]
    gc.disable()
    try:
        t0 = time.perf_counter()
        _ref_eliminate(rows)
        for edges in graphs:
            _ref_canonical(edges, 6)
        acc = Fraction(0)
        for i in range(1, 3_000):
            acc += Fraction(i % 7 + 1, i % 11 + 1)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _cpu_s() -> float:
    """User + sys time of this process and of any process it waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--fill", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tropgc
    warnings.simplefilter("ignore", tropgc.DomainGapWarning)
    make_inputs, fill_cases, run, check = WORKLOADS[args.workload]
    inputs = make_inputs(random.Random(args.seed))
    if args.fill:
        _fill(fill_cases(inputs))
        fill_s = time.monotonic() - args.spawned_at
        print(json.dumps({"fill_s": fill_s,
                          "reference_s": (reference_s() + reference_s()) / 2}))
        return 0

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    out: dict = {"startup_s": time.monotonic() - args.spawned_at}
    before = reference_s()
    try:
        t0, c0 = time.perf_counter(), _cpu_s()
        result = run(inputs)
        t1, c1 = time.perf_counter(), _cpu_s()
        out["wall_s"] = t1 - t0
        out["cpu_s"] = c1 - c0
        out["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        # The host's speed around the timed section: references on each side.
        out["reference_s"] = (before + reference_s()) / 2
        if tracer is not None:
            out["layers"] = spans.layer_metrics(tracer, out["wall_s"])
        out["ok"] = bool(check(inputs, result))
        if not out["ok"]:
            out["error"] = "wrong answer"
    except Exception as exc:  # the parent counts the sample as failed
        out.update(ok=False, error=f"{type(exc).__name__}: {exc}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
