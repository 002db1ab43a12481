"""Time the frontier cases of classical pure stable-graph generation.

Runs in a fresh temporary graph cache, so every case is generated cold:
pure enumeration of (2,5), and graph-complex homology of (3,2), (2,4) and
(1,6). Prints one line per case: the number of pure classes at each edge
count m = g .. 3g - 3 + n, the nonzero Betti numbers (homology cases only)
and the seconds the case took.

    PYTHONPATH=src python scripts/run_frontier.py
"""

import os
import tempfile
import time
from fractions import Fraction

from tropgc import (WeightDatum, build_graph_complex, enumerate_stable_graphs,
                    homology, max_edges)

ENUMERATE = [(2, 5)]
HOMOLOGY = [(3, 2), (2, 4), (1, 6)]


def run(g: int, n: int, with_homology: bool) -> str:
    a = WeightDatum(g, (Fraction(1),) * n)
    start = time.perf_counter()
    counts = [len(enumerate_stable_graphs(g, a, m, pure_only=True).classes)
              for m in range(g, max_edges(g, n) + 1)]
    line = (f"({g},{n}) pure classes at m = {g}..{max_edges(g, n)}: "
            f"{' '.join(map(str, counts))}")
    if with_homology:
        betti = homology(build_graph_complex(g, a)).betti
        nonzero = ", ".join(f"b_{k} = {v}" for k, v in betti.items() if v)
        line += f"; {nonzero or 'all Betti numbers 0'}"
    return line + f"; {time.perf_counter() - start:.1f} s"


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="tropgc-frontier-") as cache:
        os.environ["TROPGC_CACHE"] = cache
        for g, n in ENUMERATE:
            print(run(g, n, with_homology=False), flush=True)
        for g, n in HOMOLOGY:
            print(run(g, n, with_homology=True), flush=True)


if __name__ == "__main__":
    main()
