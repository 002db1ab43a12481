"""Time the frontier cases of pure stable-graph generation and check them.

CASES lists the cases and their pinned results. Each case runs in its own
child process, one at a time, cold and then warm in one fresh temporary
graph cache. Each child prints one line: the number of pure classes at
each edge count m = g .. 3g - 3 + n, the seconds of the enumeration (on a
warm line, the cache load), the nonzero Betti numbers and the seconds of
the two stages after it, build_graph_complex and homology (homology cases
only), the wall seconds of the whole case, the child's own peak resident
set and the number of entries in its canonical memo (graphs._canon_cache)
at the end. The peak is VmHWM from /proc/self/status where that exists,
since on Linux ru_maxrss also carries the spawning parent's peak across
fork and exec; elsewhere it is ru_maxrss. A child that misses a pin names
the case, the state, the expected and the got value on stderr, and the
script exits nonzero. So does a child that recomputes a cache file (an
"ignoring cache file" warning): a cold run reads only files it wrote, and
a warm one the files the cold run wrote, so the reader rejected what the
writer wrote, and a warm line would have timed generation. So does a child
that runs past CHILD_TIMEOUT seconds, which is then terminated, so a hung
child cannot stop the run.

    PYTHONPATH=src python scripts/run_frontier.py
"""

import multiprocessing
import os
import resource
import sys
import tempfile
import time
import warnings

from tropgc import (DomainGapWarning, build_graph_complex,
                    enumerate_stable_graphs, graphs, homology,
                    make_heavy_light, max_edges)

# (g, n, heavy markings: n for the classical datum, pure classes at m = g ..
# 3g - 3 + n, nonzero Betti numbers, or None for enumeration only)
CASES = [
    (2, 5, 5, [1, 89, 1231, 6018, 13065, 12905, 4725], None),
    (3, 2, 2, [1, 16, 78, 171, 170, 66], {}),
    (2, 4, 4, [1, 42, 327, 932, 1109, 465], {2: 1, 3: 3}),
    (1, 6, 6, [1, 88, 1052, 3995, 5835, 2865], {4: 60}),
    (1, 7, 0, [1, 63, 301, 1050, 1680, 1260, 360],
     {-1: 1, 1: 15, 3: 15, 5: 1}),
    # the two rows below: computed by this program
    (3, 3, 3, [1, 35, 297, 1079, 1904, 1621, 535], {3: 1}),
    (4, 1, 1, [1, 12, 65, 173, 260, 193, 67], {}),
]


# Seconds a child may run: more than ten times the slowest case, cold (2,5)
# at about 7 s on a shared 2-CPU host.
CHILD_TIMEOUT = 300


def case_name(g: int, n: int, heavy: int) -> str:
    return f"({g},{n})" if heavy == n else f"({g},{n}) heavy {heavy}"


def check(case: tuple, state: str, counts: list, betti: dict | None):
    """Exit 1, naming the case, the state and both values, on a missed pin."""
    *name, pinned_counts, pinned_betti = case
    for what, expected, got in (("pure classes", pinned_counts, counts),
                                ("Betti numbers", pinned_betti, betti)):
        if got != expected:
            raise SystemExit(f"{case_name(*name)} {state}: expected {what} "
                             f"{expected}, got {got}")


def run(case: tuple, state: str) -> None:
    """One case, in a child process; prints its report line and checks it."""
    g, n, heavy, _, pinned_betti = case
    with warnings.catch_warnings():
        # genus 1 with no heavy marking has 2g - 2 + sum(a) = 1/2
        warnings.simplefilter("ignore", DomainGapWarning)
        a = make_heavy_light(g, n, heavy)
    start = time.perf_counter()
    counts = [len(enumerate_stable_graphs(g, a, m, pure_only=True).classes)
              for m in range(g, max_edges(g, n) + 1)]
    line = (f"{state}: {case_name(g, n, heavy)} pure classes at "
            f"m = {g}..{max_edges(g, n)}: {' '.join(map(str, counts))}; "
            f"enumerate {time.perf_counter() - start:.2f} s")
    betti = None
    if pinned_betti is not None:
        t0 = time.perf_counter()
        complex_ = build_graph_complex(g, a)
        t1 = time.perf_counter()
        betti = {k: v for k, v in homology(complex_).betti.items() if v}
        t2 = time.perf_counter()
        nonzero = ", ".join(f"b_{k} = {v}" for k, v in betti.items())
        line += (f"; {nonzero or 'all Betti numbers 0'}; "
                 f"build {t1 - t0:.2f} s, homology {t2 - t1:.2f} s")
    seconds = time.perf_counter() - start
    print(f"{line}; total {seconds:.2f} s, peak RSS {peak_rss_mb():.0f} MB, "
          f"memo {len(graphs._canon_cache)} entries", flush=True)
    check(case, state, counts, betti)


def run_child(case: tuple, state: str) -> None:
    """run(case, state), its warnings printed to stderr after its line;
    exit 1, naming the case and the state, if one says that a cache file
    was recomputed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run(case, state)
    messages = [str(w.message) for w in caught]
    for message in messages:
        print(f"warning: {message}", file=sys.stderr)
    ignored = [m for m in messages if m.startswith("ignoring cache file")]
    if ignored:
        raise SystemExit(f"{case_name(*case[:3])} {state}: recomputed "
                         f"{len(ignored)} cache file(s), first: {ignored[0]}")


def peak_rss_mb() -> float:
    """This process's peak resident set in MB: VmHWM, else ru_maxrss."""
    try:
        with open("/proc/self/status") as fh:
            for field in fh:
                if field.startswith("VmHWM:"):
                    return int(field.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def start_and_join(child: multiprocessing.Process, case: tuple, state: str,
                   timeout: float = CHILD_TIMEOUT) -> None:
    """Start child and wait for it; exit 1, naming the case and the state,
    if it exits nonzero or is still running after timeout seconds, when it
    is terminated."""
    child.start()
    child.join(timeout)
    if child.is_alive():
        child.terminate()
        child.join()
        raise SystemExit(f"{case_name(*case[:3])} {state}: the child ran "
                         f"past {timeout} s and was terminated")
    if child.exitcode != 0:
        raise SystemExit(f"{case_name(*case[:3])} {state}: the child "
                         f"exited with {child.exitcode}")


def main() -> None:
    spawn = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory(prefix="tropgc-frontier-") as cache:
        os.environ["TROPGC_CACHE"] = cache
        for case in CASES:
            for state in ("cold", "warm"):
                start_and_join(spawn.Process(target=run_child,
                                             args=(case, state)), case, state)


if __name__ == "__main__":
    main()
