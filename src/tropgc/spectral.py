"""Spectral sequences of chamber-chain filtrations on graph complexes.

A chain of weight data, aligned so that consecutive signatures are nested,
filters the graph complex of its last datum by stability level: level(x) is
the first index p at which the generator x is stable. Every filtered piece
F_p is a coordinate subspace of the generator basis, and page r,

    E^r_{p,q} = {x in F_p C_{p+q} : dx in F_{p-r}} / (F_{p-1} + d F_{p+r-1}),

is the homology of page r - 1. One column reduction per degree, cells
ordered by (level, index), pairs the cell of each pivot column (level c)
with that of its pivot row (level l <= c), and that pair is a nonzero
d_{c-l} (the pairing lemma; Cohen-Steiner, Edelsbrunner and Morozov, "Vines
and vineyards", 2006). Both its cells are gone from page c - l + 1 on, so
dim E^r_{p,d-p} is the number of level-p cells of degree d, less the
degree-d pairs with c = p and l > p - r and the degree-(d+1) pairs with
l = p and c < p + r. Every pair has 1 <= l <= c <= N, so d_r = 0 for r >= N
and page N is E^infinity. The degrees are reduced from the top down with
clearing (Chen and Kerber, "Persistent homology computation with a twist",
EuroCG 2011), which skips columns that would reduce to zero and leaves the
pairs unchanged. The infinity table decomposes the Betti numbers of the
base complex degree by degree.

Page 1 at level p is the homology of the level-p slice of the base, the
complex of p relative to p - 1; so the relative graph complex of a nested
pair (lower, upper) is built here, as level 2 of the pair's filtration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .chambers import (DomainError, WeightDatum, apply_permutation,
                       compare_up_to_symmetry, identity_permutation,
                       parse_rational)
from .complexes import (RELATIVE, ChainComplex, boundary_pivots,
                        build_graph_complex, homology, moduli_label, restrict)
from .enumeration import check_aligned
from .graphs import _stability_levels

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
    return [a for a in aligned if a is not None], taus


@dataclass
class FilteredComplex:
    """Graph complex of the last chain datum, graded by stability level."""

    chain: tuple[WeightDatum, ...]
    base: ChainComplex
    levels: tuple[tuple[int, ...], ...]  # aligned with base.bases

    @property
    def num_levels(self) -> int:
        return len(self.chain)

    def level_row(self, k: int) -> tuple[int, ...]:
        i = self.base._index(k)
        return self.levels[i] if i is not None else ()

    def step(self, p: int) -> ChainComplex:
        """The level-p slice of the base: its generators first stable at
        index p, with boundary entries into lower levels deleted."""
        return restrict(self.base, [[lev == p for lev in row]
                                    for row in self.levels], RELATIVE)

    @cached_property
    def pairs(self) -> dict[int, list[tuple[int, int]]]:
        """Degree d -> the (column level, row level) of every pivot of the
        reduction of boundary(d), cells ordered by (level, index), with
        clearing; all degrees are reduced on the first call."""
        pairs = {}
        for k, lows in boundary_pivots(self.base, self.levels):
            lev_rows, lev_cols = self.level_row(k - 1), self.level_row(k)
            pairs[k] = [(lev_cols[j], lev_rows[i]) for j, i in lows.items()]
        return pairs


def build_filtered_complex(g: int, chain: Sequence[WeightDatum]
                           ) -> FilteredComplex:
    """Filtration of G for the last datum by an already-aligned chain."""
    chain = list(chain)
    if not chain:
        raise DomainError("empty weight chain")
    check_aligned(chain)
    base = build_graph_complex(g, chain[-1])
    levels = tuple(_stability_levels(g, chain, [cg.graph for cg in basis])
                   for basis in base.bases)
    if any(0 in row for row in levels):
        raise AssertionError("generator unstable at the top of the chain")
    f = FilteredComplex(tuple(chain), base, levels)
    for i, k in enumerate(base.degrees):
        below = f.level_row(k - 1)
        for level, col in zip(levels[i], base.boundaries[i].columns):
            if max(map(below.__getitem__, col), default=0) > level:
                raise AssertionError(
                    "boundary raises the filtration level: contraction must "
                    "preserve stability")
    return f


def build_relative_complex(g: int, upper: WeightDatum,
                           lower: WeightDatum) -> ChainComplex:
    """The graph complex of upper sliced to generators not stable for lower,
    with boundary components into lower-stable classes deleted; lower must
    lie in a chamber at or below that of upper."""
    return build_filtered_complex(g, (lower, upper)).step(2)


def filtered_from_raw(g: int, raw: Sequence[WeightDatum]) -> FilteredComplex:
    aligned, _ = align_chain(g, raw)
    return build_filtered_complex(g, aligned)


def page_dim(f: FilteredComplex, r: int, p: int, q: int) -> int:
    """Dimension of E^r_{p,q}, exact over Q: with d = p + q, the level-p
    cells of degree d less the pairs (c, l) gone by page r, those of degree
    d with c = p, l > p - r and those of degree d + 1 with l = p, c < p + r."""
    if r < 0:
        raise DomainError("page index must be nonnegative")
    if p < 1 or p > f.num_levels:
        return 0
    d = p + q
    return (f.level_row(d).count(p)
            - sum(c == p and l > p - r for c, l in f.pairs.get(d, ()))
            - sum(l == p and c < p + r for c, l in f.pairs.get(d + 1, ())))


@dataclass
class PageTable:
    """Dimensions of one page, {(p, q): dim E_{p,q}}."""

    dims: dict[tuple[int, int], int]

    def nonzero(self) -> dict[tuple[int, int], int]:
        return {pq: v for pq, v in sorted(self.dims.items()) if v}


def page_table(f: FilteredComplex, r: int) -> PageTable:
    dims = {}
    for d in f.base.degrees:
        for p in range(1, f.num_levels + 1):
            dims[(p, d - p)] = page_dim(f, r, p, d - p)
    return PageTable(dims)


def infinity_table(f: FilteredComplex) -> PageTable:
    """E^infinity, read as page N = f.num_levels. build_filtered_complex
    checks that no boundary entry raises the level, so every pivot row lies
    at or below its column's level: each pair has 1 <= l <= c <= N and is
    gone from page c - l + 1 <= N on, and no page after N changes."""
    return page_table(f, f.num_levels)


@dataclass
class DecompositionReport:
    """E^infinity, checked to sum to the Betti numbers degree by degree."""

    einfinity: PageTable
    betti: dict[int, int]
    topweight: list[dict]
    lower_bounds: list[dict]
    ok: bool


def decomposition_report(f: FilteredComplex) -> DecompositionReport:
    """Check Σ_p dim E^inf_{p,k-p} = Betti_k and emit top-weight labels
    plus lower-bound lines for the nonzero stable entries."""
    einf = infinity_table(f)
    hom = homology(f.base)
    betti = hom.betti
    # degree k -> its cohomological degree
    cohom = {k: row["degree"] for k, row in zip(f.base.degrees, hom.topweight)}
    name = moduli_label(f.base.g, f.chain[-1])
    topweight = []
    for k in f.base.degrees:
        s = sum(einf.dims.get((p, k - p), 0)
                for p in range(1, f.num_levels + 1))
        if s != betti[k]:
            raise AssertionError(
                f"decomposition mismatch in degree {k}: pages sum to {s}, "
                f"Betti is {betti[k]}")
        topweight.append({"degree": cohom[k], "dim": betti[k]})
    lower_bounds = []
    for (p, q), v in sorted(einf.dims.items()):
        if v > 0:
            degree = cohom[p + q]
            lower_bounds.append({
                "p": p, "q": q, "cohomological_degree": degree, "dim": v,
                "label": f"dim H^{degree}({name};Q) >= {v}"})
    return DecompositionReport(einf, betti, list(reversed(topweight)),
                               lower_bounds, True)


def spectral_json(f: FilteredComplex, pages: Sequence[int] = ()) -> dict:
    """The full machine-readable payload for one filtration."""
    report = decomposition_report(f)
    return {
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


def parse_filtration_json(payload: dict) -> tuple[int, list[WeightDatum]]:
    """Decode {"g": int, "weights": [[rational strings]]} input.

    Structural problems raise ValueError; weights outside the admissible
    domain raise DomainError from the datum constructor.
    """
    if not isinstance(payload, dict) or type(payload.get("g")) is not int:
        raise ValueError("filtration input needs an integer genus g")
    g, rows = payload["g"], payload.get("weights")
    if (not isinstance(rows, list) or not rows
            or not all(isinstance(row, list) for row in rows)):
        raise ValueError("filtration input needs a nonempty list of weight "
                         "rows, each a list")
    return g, [WeightDatum(g, tuple(parse_rational(str(x)) for x in row))
               for row in rows]
