"""Time the frontier cases of classical pure stable-graph generation.

Each case runs in its own child process, one child at a time, first cold
and then warm in the same fresh temporary graph cache: pure enumeration of
(2,5), and graph-complex homology of (3,2), (2,4) and (1,6), eight children
in all. Prints one line per child: the number of pure classes at each edge
count m = g .. 3g - 3 + n, the nonzero Betti numbers and the seconds of
the two stages after enumeration, build_graph_complex and homology
(homology cases only), the wall seconds of the whole case, the child's own
peak resident set (ru_maxrss) and the number of entries in its canonical
memo (graphs._canon_cache) at the end.

    PYTHONPATH=src python scripts/run_frontier.py
"""

import multiprocessing
import os
import resource
import tempfile
import time
from fractions import Fraction

from tropgc import (WeightDatum, build_graph_complex, enumerate_stable_graphs,
                    graphs, homology, max_edges)

CASES = [(2, 5, False), (3, 2, True), (2, 4, True), (1, 6, True)]


def run(g: int, n: int, with_homology: bool, state: str) -> None:
    """One case, in a child process; prints its report line."""
    a = WeightDatum(g, (Fraction(1),) * n)
    start = time.perf_counter()
    counts = [len(enumerate_stable_graphs(g, a, m, pure_only=True).classes)
              for m in range(g, max_edges(g, n) + 1)]
    line = (f"{state}: ({g},{n}) pure classes at m = {g}..{max_edges(g, n)}: "
            f"{' '.join(map(str, counts))}")
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
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{line}; total {seconds:.2f} s, peak RSS {peak_mb:.0f} MB, "
          f"memo {len(graphs._canon_cache)} entries", flush=True)


def main() -> None:
    spawn = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory(prefix="tropgc-frontier-") as cache:
        os.environ["TROPGC_CACHE"] = cache
        for g, n, with_homology in CASES:
            for state in ("cold", "warm"):
                child = spawn.Process(target=run,
                                      args=(g, n, with_homology, state))
                child.start()
                child.join()
                if child.exitcode != 0:
                    raise SystemExit(f"({g},{n}) {state}: the child process "
                                     f"exited with code {child.exitcode}")


if __name__ == "__main__":
    main()
