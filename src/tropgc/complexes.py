"""Chain complexes of stable graphs and their homology.

Two complexes are assembled here, each boundary an integer matrix built
column by column, one column per generator:

* the graph complex of a weight datum: pure stable graphs, degree
  |E| - 2g, boundary the signed sum of non-loop edge contractions;
* the cellular chain complex of the tropical moduli space: all stable
  graphs, degree |E| - 1 (with a single degree -1 augmentation generator),
  boundary the signed sum of all edge contractions, loops included.

The others are restrict slices of these: the loopless pure part of the
cellular complex and its complement here, and in spectral.py the level
slices of a filtered graph complex, which include the relative graph
complex of a nested pair of weight data (level 2 of the pair's filtration).

The boundary of a generator with canonical edges e_1 < ... < e_m is
sum_i (-1)^i [G/e_i], each contraction canonicalized; the coefficient picks
up the sign of the edge relabeling, and contractions landing on a class
with an odd edge automorphism are dropped. Coefficients are summed as
integers. The composite of two boundaries is asserted to vanish for every
complex, assembled or sliced.

A boundary computes each contraction shape (the weights and edges left,
and the vertex map that moves the legs) once, and gives each contracted
head one checked record (graphs._Head) that every contraction landing on it
is canonicalized with: the relabeling of a contraction that misses the
canonical memo is derived once per (head, ordered colour classes) and
reused by every later contraction with the same classes.

Ranks come from one column reduction per boundary, top degree first, with
clearing (Chen and Kerber, "Persistent homology computation with a twist",
EuroCG 2011): a pivot row of the reduced boundary out of degree k + 1 names
a column of the boundary out of degree k that would reduce to zero, so that
column is never reduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .chambers import DomainError, WeightDatum, format_rational
from .graphs import (CanonicalGraph, _canonicalize_parts, _contracted_shape,
                     _Head, _head_record, _moved_legs, has_loops, is_pure)
from .enumeration import CELLULAR, GRAPH, degree_range, generator_basis
from .linalg import RationalMatrix, column_pivots

A_PART = "a-part"
B_PART = "b-part"
RELATIVE = "relative"


@dataclass
class ChainComplex:
    """Per-degree generator bases and integer boundary matrices."""

    kind: str
    g: int
    weights: WeightDatum
    degrees: tuple[int, ...]
    bases: tuple[tuple[CanonicalGraph, ...], ...]
    boundaries: tuple[RationalMatrix, ...]  # boundaries[i]: C_{degrees[i]} -> C_{degrees[i]-1}

    def __post_init__(self):
        for i, k in enumerate(self.degrees):
            mat = self.boundaries[i]
            if mat.cols != len(self.bases[i]):
                raise AssertionError("boundary column count mismatch")
            expected_rows = self.dim(k - 1)
            if mat.rows != expected_rows:
                raise AssertionError("boundary row count mismatch")
        for i, k in enumerate(self.degrees):
            if k - 1 in self.degrees:
                below = self.boundary(k - 1)
                if not below.matmul(self.boundaries[i]).is_zero():
                    raise AssertionError(
                        f"boundary squared is nonzero from degree {k}")

    def _index(self, k: int) -> Optional[int]:
        if self.degrees and self.degrees[0] <= k <= self.degrees[-1]:
            return k - self.degrees[0]
        return None

    def basis(self, k: int) -> tuple[CanonicalGraph, ...]:
        i = self._index(k)
        return self.bases[i] if i is not None else ()

    def dim(self, k: int) -> int:
        return len(self.basis(k))

    def boundary(self, k: int) -> RationalMatrix:
        """The map C_k -> C_{k-1}; zero-shaped outside the stored range."""
        i = self._index(k)
        if i is None:
            return RationalMatrix(self.dim(k - 1), self.dim(k))
        return self.boundaries[i]


def _boundary_columns(basis_high: tuple[CanonicalGraph, ...],
                      row_of: dict[str, int], contract_loops: bool
                      ) -> list[dict[int, int]]:
    # (edge index, record of the contracted head, vertex map) of each edge
    # contracted, for each (weights, edges) seen so far: the legs do not
    # change the shape. One record per contracted head, shared by every
    # shape that contracts to it, holds its relabelings.
    shapes: dict[tuple, list] = {}
    records: dict[tuple, _Head] = {}
    columns = []
    for cg in basis_high:
        weights, edges, legs = cg.graph
        by_edge = shapes.get((weights, edges))
        if by_edge is None:
            by_edge = shapes[weights, edges] = []
            for i, (u, v) in enumerate(edges):
                if u != v or contract_loops:
                    new_weights, new_edges, remap = _contracted_shape(
                        weights, edges, i)
                    head = (new_weights, new_edges)
                    record = records.get(head)
                    if record is None:
                        record = records[head] = _head_record(*head)
                    by_edge.append((i, record, remap))
        col: dict[int, int] = {}
        for i, record, remap in by_edge:
            target, sign = _canonicalize_parts(
                record.weights, record.edges, _moved_legs(remap, legs),
                head=record)
            if target.has_odd_edge_automorphism:
                continue
            row = row_of.get(target.encoding)
            if row is None:
                raise AssertionError(
                    f"contraction target {target.encoding} is missing from "
                    "the basis: the stable graph enumeration is incomplete")
            # the sign times (-1)^(i+1), i from 0
            col[row] = col.get(row, 0) + (sign if i % 2 else -sign)
        columns.append(col)
    return columns


def _assemble(kind: str, g: int, a: WeightDatum) -> ChainComplex:
    degrees = degree_range(g, a.n, kind)
    bases = [generator_basis(g, a, k, kind) for k in degrees]
    if kind == CELLULAR and not any(bases[1:]):  # nothing above degree -1
        raise DomainError("the moduli space is empty: no stable graph has an edge")
    boundaries = []
    for i in range(len(degrees)):
        below = bases[i - 1] if i else ()
        row_of = {cg.encoding: r for r, cg in enumerate(below)}
        columns = _boundary_columns(bases[i], row_of, kind == CELLULAR)
        boundaries.append(RationalMatrix(len(below), len(bases[i]), columns))
    return ChainComplex(kind, g, a, tuple(degrees),
                        tuple(bases), tuple(boundaries))


def build_graph_complex(g: int, a: WeightDatum) -> ChainComplex:
    """The graph complex of (g, a): pure stable graphs, loop terms dropped."""
    return _assemble(GRAPH, g, a)


def build_cellular_complex(g: int, a: WeightDatum) -> ChainComplex:
    """Cellular chains of the tropical moduli space; reduced via the single
    degree -1 generator. Loop contractions are genuine faces here."""
    return _assemble(CELLULAR, g, a)


def restrict(c: ChainComplex, keep: Sequence[Sequence[bool]],
             kind: str) -> ChainComplex:
    """The generators flagged in keep (aligned with c.bases) and the boundary
    entries between them. Kept from a subcomplex less a smaller one, this is
    the quotient complex: entries into dropped generators are deleted."""
    kept = [{j: b for b, j in enumerate(j for j, k in enumerate(flags) if k)}
            for flags in keep]
    bases, mats = [], []
    for i, col_of in enumerate(kept):
        row_of = kept[i - 1] if i else {}
        columns = c.boundaries[i].columns
        bases.append(tuple(c.bases[i][j] for j in col_of))
        mats.append(RationalMatrix(len(row_of), len(col_of), [
            {row_of[r]: v for r, v in columns[j].items() if r in row_of}
            for j in col_of]))
    return ChainComplex(kind, c.g, c.weights, c.degrees,
                        tuple(bases), tuple(mats))


def split_AB(c: ChainComplex) -> tuple[ChainComplex, ChainComplex]:
    """Split cellular chains into the loopless pure part and the rest.

    Both parts are closed under the boundary (checked), and their direct
    sum recovers the input complex blockwise.
    """
    if c.kind != CELLULAR:
        raise DomainError("only a cellular complex splits this way")
    in_a = [[is_pure(cg.graph) and not has_loops(cg.graph) for cg in basis]
            for basis in c.bases]
    a_part = restrict(c, in_a, A_PART)
    b_part = restrict(c, [[not a for a in flags] for flags in in_a], B_PART)
    for whole, a, b in zip(c.boundaries, a_part.boundaries, b_part.boundaries):
        if (sum(map(len, a.columns + b.columns))
                != sum(map(len, whole.columns))):
            raise AssertionError(
                "the A/B split of the cellular complex is not boundary-closed")
    return a_part, b_part


@dataclass
class HomologyReport:
    """Betti numbers plus the labels they transport to."""

    dims: dict[int, int]
    betti: dict[int, int]
    topweight: list[dict]  # graph complexes only
    delta: list[dict]


def moduli_label(g: int, a: WeightDatum) -> str:
    if all(x == 1 for x in a.entries):
        return f"M_{{{g},{a.n}}}"
    weights = ",".join(format_rational(x) for x in a.entries)
    return f"M_{{{g},A}} with A=({weights})"


def boundary_pivots(c: ChainComplex,
                    levels: Optional[tuple[tuple[int, ...], ...]] = None
                    ) -> Iterator[tuple[int, dict[int, int]]]:
    """(degree, {column: pivot row} of the column reduction of its
    boundary) for every degree of c, top degree first, with clearing.

    The cells of each degree are ordered by index, or by (level, index)
    with levels aligned with c.bases; that order is the column order of the
    boundary out of the degree and the row key of the boundary into it.
    From the top degree down, a reduced column of boundary(k + 1) with pivot
    row i is a chain ending in cell i that boundary(k) maps to zero, so
    column i of boundary(k) would reduce to zero and is left out.
    """
    cleared: set[int] = set()
    for i in range(len(c.degrees) - 1, -1, -1):
        order = [j for j in range(len(c.bases[i])) if j not in cleared]
        row_key = None
        if levels is not None:
            order.sort(key=levels[i].__getitem__)  # stable: (level, index)
            below = levels[i - 1] if i else ()
            row_key = lambda r: (below[r], r)
        lows = {j: low for j, (low, _) in column_pivots(
            c.boundaries[i], order=order, row_key=row_key).items()}
        yield c.degrees[i], lows
        cleared = set(lows.values())


def homology(c: ChainComplex) -> HomologyReport:
    """Betti numbers by rank-nullity; graph complexes also carry the
    top-weight cohomology and tropical moduli labels."""
    dims = {k: c.dim(k) for k in c.degrees}
    ranks = {k: len(p) for k, p in boundary_pivots(c)}
    betti = {}
    for k in c.degrees:
        betti[k] = dims[k] - ranks[k] - ranks.get(k + 1, 0)
        if betti[k] < 0:
            raise AssertionError("negative Betti number")
    g, a = c.g, c.weights
    shift = 2 * g - 1 if c.kind in (GRAPH, RELATIVE) else 0
    delta = [{"degree": k + shift, "dim": betti[k]} for k in c.degrees]
    topweight: list[dict] = []
    if c.kind == GRAPH:
        w = 6 * g - 6 + 2 * a.n
        topweight = [{"degree": 4 * g - 6 + 2 * a.n - k, "weight": w,
                      "dim": betti[k]} for k in c.degrees]
    return HomologyReport(dims, betti, topweight, delta)
