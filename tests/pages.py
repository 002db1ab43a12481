"""The E^1 check shared by the spectral and acceptance tests.

It compares two routes through the package itself, the persistence pairs
behind page_dim and the homology of each filtration step, so it is not an
independent oracle and lives outside oracles.py.
"""

from tropgc import FilteredComplex, homology, page_dim


def e1_relative_check(f: FilteredComplex) -> bool:
    """The first page must equal stepwise relative homology: E^1_{p,q} is
    Betti_{p+q} of the slice of the base to its level-exactly-p generators."""
    for p in range(1, f.num_levels + 1):
        step_betti = homology(f.step(p)).betti
        for d in f.base.degrees:
            if page_dim(f, 1, p, d - p) != step_betti[d]:
                return False
    return True
