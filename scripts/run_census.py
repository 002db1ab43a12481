"""Enumerate fine chambers of the weight simplex for small (g, n), and time
each census."""

import argparse
import time

from tropgc import enumerate_chambers, feasible_point, format_rational


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--g", type=int, default=1)
    parser.add_argument("--max-n", type=int, default=4)
    parser.add_argument("--points", action="store_true",
                        help="print a rational witness per chamber")
    args = parser.parse_args()

    lo = 3 if args.g == 0 else 1
    for n in range(max(lo, 2), args.max_n + 1):
        start = time.perf_counter()
        census = enumerate_chambers(args.g, n)
        seconds = time.perf_counter() - start
        sizes = sorted(len(o) for o in census.orbits)
        print(f"g={args.g} n={n}: {len(census.chambers)} chambers, "
              f"{len(census.orbits)} orbits (sizes {sizes}) "
              f"in {seconds:.2f} s")
        if args.points:
            for orbit in census.orbits:
                a = feasible_point(orbit[0])
                entries = ",".join(format_rational(x) for x in a.entries)
                plus = sum(orbit[0].signs)
                print(f"  ({entries})  [{plus} Plus walls, "
                      f"orbit size {len(orbit)}]")


if __name__ == "__main__":
    main()
