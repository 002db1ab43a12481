"""Page checks shared by the spectral and acceptance tests.

The E^1 check compares two routes through the package itself, the
persistence pairs behind page_dim and the homology of each filtration
step, so it is not an independent oracle and lives outside oracles.py.
"""

from tropgc import (DecompositionReport, FilteredComplex, homology,
                    page_dim)


def e1_relative_check(f: FilteredComplex) -> bool:
    """The first page must equal stepwise relative homology: E^1_{p,q} is
    Betti_{p+q} of the slice of the base to its level-exactly-p generators."""
    for p in range(1, f.num_levels + 1):
        step_betti = homology(f.step(p)).betti
        for d in f.base.degrees:
            if page_dim(f, 1, p, d - p) != step_betti[d]:
                return False
    return True


def einfinity_sums(report: DecompositionReport) -> dict[int, int]:
    """Degree d -> the sum over p of dim E^inf_{p,d-p}, for every degree of
    the base complex, read off the report's E^infinity table."""
    sums: dict[int, int] = {}
    for (p, q), v in report.einfinity.dims.items():
        sums[p + q] = sums.get(p + q, 0) + v
    return sums
