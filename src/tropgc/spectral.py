"""Spectral sequences of chamber-chain filtrations on graph complexes.

A chain of weight data, aligned so that consecutive signatures are nested,
filters the graph complex of its last datum by stability level: level(x) is
the first index p at which the generator x is stable. Every filtered piece
F_p is a coordinate subspace of the generator basis, so every page

    E^r_{p,q} = {x in F_p C_{p+q} : dx in F_{p-r}} / (F_{p-1} + d F_{p+r-1})

has a dimension that is a signed sum of ranks of boundary blocks: with
R_d(a, b) the rank of the boundary of degree d restricted to columns of
level <= b and rows of level >= a,

    dim E^r_{p,d-p} = #{level = p} - [R_d(p-r+1, p) - R_d(p-r+1, p-1)]
                      - [R_{d+1}(p, p+r-1) - R_{d+1}(p+1, p+r-1)].

The first bracket counts the level-p directions whose boundary leaves
F_{p-r}; the second counts the boundaries of F_{p+r-1} that lie in F_p but
not in F_{p-1}. Each R_d(a, b) is a count of pivots: one column reduction
of the degree-d boundary, columns in order of level and rows keyed by
level, has exactly R_d(a, b) pivots with column level <= b and row level
>= a (the pairing lemma of persistence). The degrees are reduced from the
top down with clearing (Chen and Kerber, "Persistent homology computation
with a twist", EuroCG 2011): each pivot row of the degree-(d+1) reduction is
a degree-d column that would reduce to zero, so it is skipped and the pivots
are unchanged. Pages stabilize at
r = max(p, N-p+1); the infinity table decomposes the Betti numbers of the
base complex degree by degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .chambers import (DomainError, WeightDatum, apply_permutation,
                       compare_up_to_symmetry, format_rational,
                       identity_permutation, parse_rational)
from .complexes import (RELATIVE, ChainComplex, boundary_pivots,
                        build_graph_complex, homology, moduli_label, restrict)
from .enumeration import GRAPH_COMPLEX, check_aligned, filtration_levels

Permutation = tuple[int, ...]


def _compose(outer: Permutation, inner: Permutation) -> Permutation:
    """One-line composition c with apply(c, a) = apply(inner, apply(outer, a))."""
    return tuple(outer[inner[i] - 1] for i in range(len(inner)))


def align_chain(g: int, raw: Sequence[WeightDatum]
                ) -> tuple[list[WeightDatum], list[Permutation]]:
    """Relabel each datum so the chain is nested signature by signature.

    Consecutive raw pairs must compare as Equal or Less up to symmetry; the
    returned permutations tau_p carry raw_p to the aligned datum, with the
    last datum kept as given.
    """
    if not raw:
        raise DomainError("empty weight-datum chain")
    n = len(raw)
    for a in raw:
        if a.g != g:
            raise DomainError("chain datum has mismatched genus")
    taus: list[Permutation] = [identity_permutation(raw[0].n)] * n
    aligned: list[Optional[WeightDatum]] = [None] * n
    aligned[n - 1] = raw[n - 1]
    for p in range(n - 2, -1, -1):
        res = compare_up_to_symmetry(raw[p], raw[p + 1])
        if res.relation not in ("Equal", "Less"):
            raise DomainError(
                f"chain entries {p + 1} and {p + 2} compare as {res.relation}; "
                "an aligned chain needs Equal or Less")
        taus[p] = _compose(res.witness, taus[p + 1])
        aligned[p] = apply_permutation(taus[p], raw[p])
    out = [a for a in aligned if a is not None]
    check_aligned(out)
    return out, taus


@dataclass
class FilteredComplex:
    """Graph complex of the last chain datum, graded by stability level."""

    g: int
    chain: tuple[WeightDatum, ...]
    base: ChainComplex
    levels: tuple[tuple[int, ...], ...]  # aligned with base.bases
    _pivot_levels: dict[int, list[tuple[int, int]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def num_levels(self) -> int:
        return len(self.chain)

    def level_row(self, k: int) -> tuple[int, ...]:
        i = self.base._index(k)
        return self.levels[i] if i is not None else ()

    def block_rank(self, d: int, a: int, b: int) -> int:
        """R_d(a, b): rank of boundary(d) on the columns of level <= b and
        the rows of level >= a, counted as the pivots in that block of one
        column reduction per degree (cells ordered by (level, index), with
        clearing), all degrees reduced on the first call."""
        if not self._pivot_levels:
            for k, lows in boundary_pivots(self.base, self.levels):
                lev_rows, lev_cols = self.level_row(k - 1), self.level_row(k)
                self._pivot_levels[k] = [(lev_cols[j], lev_rows[i])
                                         for j, i in lows.items()]
        return sum(1 for col, row in self._pivot_levels.get(d, ())
                   if col <= b and row >= a)


def build_filtered_complex(g: int, chain: Sequence[WeightDatum]
                           ) -> FilteredComplex:
    """Filtration of G for the last datum by an already-aligned chain."""
    chain = list(chain)
    check_aligned(chain)
    base = build_graph_complex(g, chain[-1])
    levels = []
    for i, k in enumerate(base.degrees):
        by_class = filtration_levels(g, chain, k, GRAPH_COMPLEX)
        levels.append(tuple(by_class[cg] for cg in base.bases[i]))
    f = FilteredComplex(g, tuple(chain), base, tuple(levels))
    for i, k in enumerate(base.degrees):
        below = f.level_row(k - 1)
        for (r, c) in base.boundaries[i].entries():
            if below[r] > levels[i][c]:
                raise AssertionError(
                    "boundary raises the filtration level: contraction must "
                    "preserve stability")
    return f


def filtered_from_raw(g: int, raw: Sequence[WeightDatum]) -> FilteredComplex:
    aligned, _ = align_chain(g, raw)
    return build_filtered_complex(g, aligned)


def page_dim(f: FilteredComplex, r: int, p: int, q: int) -> int:
    """Dimension of E^r_{p,q}, exact over Q: with d = p + q and R the
    block ranks of f, #{level = p} - [R_d(p-r+1, p) - R_d(p-r+1, p-1)]
    - [R_{d+1}(p, p+r-1) - R_{d+1}(p+1, p+r-1)]."""
    if r < 0:
        raise DomainError("page index must be nonnegative")
    if p < 1 or p > f.num_levels:
        return 0
    d, rk = p + q, f.block_rank
    return (f.level_row(d).count(p)
            - rk(d, p - r + 1, p) + rk(d, p - r + 1, p - 1)
            - rk(d + 1, p, p + r - 1) + rk(d + 1, p + 1, p + r - 1))


@dataclass
class PageTable:
    """Dimensions of one page; r is None for the stable (infinity) table."""

    r: Optional[int]
    dims: dict[tuple[int, int], int]

    def nonzero(self) -> dict[tuple[int, int], int]:
        return {pq: v for pq, v in sorted(self.dims.items()) if v}


def page_table(f: FilteredComplex, r: int) -> PageTable:
    dims = {}
    for d in f.base.degrees:
        for p in range(1, f.num_levels + 1):
            dims[(p, d - p)] = page_dim(f, r, p, d - p)
    return PageTable(r, dims)


def infinity_table(f: FilteredComplex) -> PageTable:
    """E^infinity via the stabilization bound r* = max(p, N-p+1), with a
    stationarity check at r*+1."""
    n_levels = f.num_levels
    dims = {}
    for d in f.base.degrees:
        for p in range(1, n_levels + 1):
            q = d - p
            r_star = max(p, n_levels - p + 1)
            v = page_dim(f, r_star, p, q)
            if v != page_dim(f, r_star + 1, p, q):
                raise AssertionError(
                    f"page dimension not stationary at r={r_star}, "
                    f"(p,q)=({p},{q})")
            dims[(p, q)] = v
    return PageTable(None, dims)


@dataclass
class DecompositionReport:
    """Per-degree comparison of E^infinity sums against Betti numbers."""

    g: int
    chain: tuple[WeightDatum, ...]
    einfinity: PageTable
    betti: dict[int, int]
    rows: list[dict]
    topweight: list[dict]
    lower_bounds: list[dict]
    ok: bool


def decomposition_report(f: FilteredComplex) -> DecompositionReport:
    """Check Σ_p dim E^inf_{p,k-p} = Betti_k and emit top-weight labels
    plus lower-bound lines for the nonzero stable entries."""
    einf = infinity_table(f)
    betti = homology(f.base).betti
    g = f.g
    n = f.chain[-1].n
    weight = 6 * g - 6 + 2 * n
    name = moduli_label(g, f.chain[-1])
    rows, topweight = [], []
    for k in f.base.degrees:
        s = sum(einf.dims.get((p, k - p), 0)
                for p in range(1, f.num_levels + 1))
        if s != betti[k]:
            raise AssertionError(
                f"decomposition mismatch in degree {k}: pages sum to {s}, "
                f"Betti is {betti[k]}")
        degree = 4 * g - 6 + 2 * n - k
        rows.append({"degree": k, "einfinity_sum": s, "betti": betti[k],
                     "cohomological_degree": degree, "weight": weight})
        topweight.append({"degree": degree, "dim": betti[k]})
    lower_bounds = []
    for (p, q), v in sorted(einf.dims.items()):
        if v > 0:
            degree = 4 * g - 6 + 2 * n - (p + q)
            lower_bounds.append({
                "p": p, "q": q, "cohomological_degree": degree, "dim": v,
                "label": f"dim H^{degree}({name};Q) >= {v}"})
    return DecompositionReport(g, f.chain, einf, betti, rows,
                               list(reversed(topweight)), lower_bounds, True)


def e1_relative_check(f: FilteredComplex) -> bool:
    """The first page must equal stepwise relative homology: E^1_{p,q} is
    Betti_{p+q} of the slice of the base to its level-exactly-p generators."""
    for p in range(1, f.num_levels + 1):
        keep = [[lev == p for lev in row] for row in f.levels]
        step_betti = homology(restrict(f.base, keep, RELATIVE)).betti
        for d in f.base.degrees:
            if page_dim(f, 1, p, d - p) != step_betti[d]:
                return False
    return True


def spectral_json(f: FilteredComplex, pages: Sequence[int] = ()) -> dict:
    """The full machine-readable payload for one filtration."""
    report = decomposition_report(f)
    out: dict = {
        "pages": {str(r): {f"{p},{q}": v
                           for (p, q), v in page_table(f, r).nonzero().items()}
                  for r in pages},
        "einfinity": {f"{p},{q}": v
                      for (p, q), v in report.einfinity.nonzero().items()},
        "betti": {str(k): v for k, v in sorted(report.betti.items())},
        "decomposition_ok": report.ok,
        "topweight": report.topweight,
        "lower_bounds": [dict(b) for b in report.lower_bounds],
    }
    return out


def parse_filtration_json(payload: dict) -> tuple[int, list[WeightDatum]]:
    """Decode {"g": int, "weights": [[rational strings]]} input.

    Structural problems raise ValueError; weights outside the admissible
    domain raise DomainError from the datum constructor.
    """
    try:
        g = int(payload["g"])
        rows = payload["weights"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed filtration input: {exc}") from exc
    if not isinstance(rows, list) or not rows:
        raise ValueError("filtration input needs a nonempty weights list")
    data = []
    for row in rows:
        entries = tuple(parse_rational(str(x)) for x in row)
        data.append(WeightDatum(g, entries))
    return g, data


def filtration_to_json(g: int, data: Sequence[WeightDatum]) -> dict:
    return {"g": g, "weights": [[format_rational(x) for x in a.entries]
                                for a in data]}
