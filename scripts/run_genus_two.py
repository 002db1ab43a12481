"""Probe the genus-2, 3-marking floor filtration for sixth-cohomology classes.

The degree-2 part of the classical genus-2 graph complex contains six
marked 6-edge classes: three with both special vertices trivalent and
three carrying a tail. The alternating combination of all six lies in
filtration level 3 and is a cycle on page 2, but its absolute boundary is
twice a 5-edge class, so it dies on page 3 and certifies nothing over Q.
This script prints the whole computation.
"""

from fractions import Fraction

from tropgc import (
    WeightDatum,
    build_graph_complex,
    decomposition_report,
    filtered_from_raw,
    homology,
    make_floor,
    make_minimal,
    page_dim,
)
from tropgc.graphs import MarkedGraph, canonicalize

CHAIN = [make_minimal(2, 3), make_floor(2, 3, 3),
         WeightDatum(2, (Fraction(1),) * 3)]

THETA_TAIL = [
    ("G_1", MarkedGraph((0, 0, 0, 0, 0),
                        ((0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)),
                        (4, 0, 0))),
    ("G_2", MarkedGraph((0, 0, 0, 0, 0),
                        ((0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)),
                        (0, 4, 0))),
    ("G_3", MarkedGraph((0, 0, 0, 0, 0),
                        ((0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)),
                        (0, 0, 4))),
]
DOUBLE_BRANCH = [
    ("H_1", MarkedGraph((0, 0, 0, 0, 0),
                        ((0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 4)),
                        (4, 0, 1))),
    ("H_2", MarkedGraph((0, 0, 0, 0, 0),
                        ((0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 4)),
                        (0, 4, 1))),
    ("H_3", MarkedGraph((0, 0, 0, 0, 0),
                        ((0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 4)),
                        (0, 1, 4))),
]


def main() -> None:
    f = filtered_from_raw(2, CHAIN)
    base = f.base
    print(f"degrees: {base.degrees}")
    print(f"degree-2 basis size: {base.dim(2)}")

    basis = base.basis(2)
    index = {cg: j for j, cg in enumerate(basis)}
    levels = f.level_row(2)
    coeff = {}
    for name, graph in DOUBLE_BRANCH + THETA_TAIL:
        cg, edge_sign = canonicalize(graph)
        j = index[cg]
        print(f"  {name}: column {j}, level {levels[j]}")
        sign = 1 if name.startswith("H") else -1
        if name[-1] == "2":
            sign = -sign
        coeff[j] = coeff.get(j, 0) + sign * edge_sign

    d2 = base.boundary(2)
    image = {}
    for (row, col), v in d2.entries().items():
        if col in coeff:
            image[row] = image.get(row, 0) + v * coeff[col]
    nonzero = {row: v for row, v in image.items() if v != 0}
    print(f"boundary of H_1 - H_2 + H_3 - G_1 + G_2 - G_3: "
          f"{len(nonzero)} nonzero component(s)")
    for row, v in sorted(nonzero.items()):
        target = base.basis(1)[row]
        print(f"  {v} * [{target.encoding}] (level {f.level_row(1)[row]})")

    print(f"dim E^2 at (p,q)=(3,-1): {page_dim(f, 2, 3, -1)}")
    print(f"dim E^3 at (p,q)=(3,-1): {page_dim(f, 3, 3, -1)}")
    betti = homology(build_graph_complex(2, CHAIN[-1])).betti
    print(f"graph-complex Betti numbers: {betti}")
    report = decomposition_report(f)
    print(f"decomposition holds: {report.ok}")
    print(f"lower bounds emitted: {report.lower_bounds or 'none'}")


if __name__ == "__main__":
    main()
