"""Time the frontier cases of pure stable-graph generation.

Each case runs in its own child process, one child at a time, first cold
and then warm in the same fresh temporary graph cache: pure enumeration of
classical (2,5), graph-complex homology of classical (3,2), (2,4) and
(1,6), and of (1,7) with no heavy marking (make_heavy_light), ten children
in all. Prints one line per child: the number of pure classes at each edge
count m = g .. 3g - 3 + n, the seconds of the enumeration (on a warm line,
the cache load), the nonzero Betti numbers and the seconds of the two
stages after it, build_graph_complex and homology (homology cases only),
the wall seconds of the whole case, the child's own peak resident set and
the number of entries in its canonical memo (graphs._canon_cache) at the
end. The peak is VmHWM from /proc/self/status where that exists, since on
Linux ru_maxrss also carries the spawning parent's peak across fork and
exec; elsewhere it is ru_maxrss.

    PYTHONPATH=src python scripts/run_frontier.py
"""

import multiprocessing
import os
import resource
import tempfile
import time
import warnings

from tropgc import (DomainGapWarning, build_graph_complex,
                    enumerate_stable_graphs, graphs, homology,
                    make_heavy_light, max_edges)

# (g, n, heavy markings, with homology); n heavy markings is the classical
# datum (1, ..., 1)
CASES = [(2, 5, 5, False), (3, 2, 2, True), (2, 4, 4, True), (1, 6, 6, True),
         (1, 7, 0, True)]


def run(g: int, n: int, heavy: int, with_homology: bool, state: str) -> None:
    """One case, in a child process; prints its report line."""
    with warnings.catch_warnings():
        # genus 1 with no heavy marking has 2g - 2 + sum(a) = 1/2
        warnings.simplefilter("ignore", DomainGapWarning)
        a = make_heavy_light(g, n, heavy)
    name = f"({g},{n})" if heavy == n else f"({g},{n}) heavy {heavy}"
    start = time.perf_counter()
    counts = [len(enumerate_stable_graphs(g, a, m, pure_only=True).classes)
              for m in range(g, max_edges(g, n) + 1)]
    line = (f"{state}: {name} pure classes at m = {g}..{max_edges(g, n)}: "
            f"{' '.join(map(str, counts))}; "
            f"enumerate {time.perf_counter() - start:.2f} s")
    if with_homology:
        t0 = time.perf_counter()
        complex_ = build_graph_complex(g, a)
        t1 = time.perf_counter()
        betti = homology(complex_).betti
        t2 = time.perf_counter()
        nonzero = ", ".join(f"b_{k} = {v}" for k, v in betti.items() if v)
        line += (f"; {nonzero or 'all Betti numbers 0'}; "
                 f"build {t1 - t0:.2f} s, homology {t2 - t1:.2f} s")
    seconds = time.perf_counter() - start
    print(f"{line}; total {seconds:.2f} s, peak RSS {peak_rss_mb():.0f} MB, "
          f"memo {len(graphs._canon_cache)} entries", flush=True)


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


def main() -> None:
    spawn = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory(prefix="tropgc-frontier-") as cache:
        os.environ["TROPGC_CACHE"] = cache
        for g, n, heavy, with_homology in CASES:
            for state in ("cold", "warm"):
                child = spawn.Process(target=run,
                                      args=(g, n, heavy, with_homology, state))
                child.start()
                child.join()
                if child.exitcode != 0:
                    raise SystemExit(f"({g},{n}) {state}: the child process "
                                     f"exited with code {child.exitcode}")


if __name__ == "__main__":
    main()
