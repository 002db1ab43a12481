"""Walk the five-chamber filtration of the classical (1,3) graph complex.

Prints every spectral sequence page, the limit page, and the resulting
top-weight decomposition with its lower-bound lines.
"""

from fractions import Fraction

from tropgc import (
    WeightDatum,
    decomposition_report,
    filtered_from_raw,
    format_rational,
    infinity_table,
    page_table,
)

EPS = Fraction(1, 100)
CHAIN = [
    WeightDatum(1, (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3) - EPS)),
    WeightDatum(1, (Fraction(4, 9) - EPS,) * 3),
    WeightDatum(1, (Fraction(14, 27) - EPS, Fraction(12, 27),
                    Fraction(14, 27))),
    WeightDatum(1, (Fraction(99, 100), Fraction(12, 27), Fraction(14, 27))),
    WeightDatum(1, (Fraction(1),) * 3),
]


def main() -> None:
    f = filtered_from_raw(1, CHAIN)
    print("chain:")
    for p, a in enumerate(f.chain, start=1):
        entries = ",".join(format_rational(x) for x in a.entries)
        print(f"  A_{p} = ({entries})")
    # page N = f.num_levels is already E^infinity (spectral.infinity_table)
    for r in range(0, f.num_levels + 1):
        print(f"page r={r}: {page_table(f, r).nonzero() or 'zero'}")
    print(f"limit page: {infinity_table(f).nonzero() or 'zero'}")

    report = decomposition_report(f)
    print(f"decomposition holds: {report.ok}")
    for k, betti in report.betti.items():
        total = sum(v for (p, q), v in report.einfinity.dims.items()
                    if p + q == k)
        print(f"  degree {k:>2}: sum of limit entries = {total}, "
              f"Betti = {betti}")
    for row in report.topweight:
        print(f"  Gr^W_6 H^{row['degree']}(M_{{1,3}};Q) has dim "
              f"{row['dim']}")
    for bound in report.lower_bounds:
        print(f"  {bound['label']}")


if __name__ == "__main__":
    main()
