"""Exact sparse linear algebra: integer matrices, ranks over the rationals.

A matrix is stored as its columns, each a dict {row: nonzero int}; graph
complex boundaries are sums of signed contractions, so every entry is an
int, and a Fraction, bool or float entry is rejected. Every operation is
exact; no floating point appears anywhere. There is one elimination,
column_pivots: a fraction-free, left-to-right column reduction that reduces
each column against earlier pivot columns until its lowest row is new.
Each pivot column is stored as a primitive integer vector with a positive
pivot entry, so a later column reduced against it with a unit pivot ratio
is updated in place; column signs never move a pivot row.
The rank over Q is the number of pivots. By the pairing lemma of
persistence (Cohen-Steiner, Edelsbrunner and Morozov, "Vines and
vineyards", 2006), with columns and rows ordered by a filtration, the rank
of every lower-left block is the number of pivots inside it. A column known
to lie in the span of the columns before it reduces to zero and can be left
out of the order without changing any other pivot; the chain complexes use
this to skip the columns that the reduction of the next boundary clears
(Chen and Kerber, "Persistent homology computation with a twist", EuroCG
2011). Kernels come from the reduction of m stacked over the identity, and
subspace dimensions from ranks of the vectors with denominators cleared.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, Optional, Sequence


@dataclass(frozen=True, slots=True, init=False, repr=False)
class RationalMatrix:
    """Immutable sparse integer matrix, whose ranks are taken over Q:
    columns[j] is column j as {row: nonzero int}. The constructor drops
    zero entries and rejects any entry that is not an int."""

    rows: int
    cols: int
    columns: tuple[dict[int, int], ...]
    __hash__ = None  # its columns are dicts

    def __init__(self, rows: int, cols: int,
                 columns: Sequence[Mapping[int, int]] = ()):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        columns = [*map(dict, columns)] or [{} for _ in range(cols)]
        if len(columns) != cols:
            raise ValueError(f"{len(columns)} columns, not {cols}")
        values = [*chain.from_iterable(map(dict.values, columns))]
        if {*map(type, values)} - {int}:
            bad = next(v for v in values if type(v) is not int)
            raise TypeError(f"not an integer entry: {bad!r}")
        if values:
            used = [*chain.from_iterable(columns)]
            if min(used) < 0 or max(used) >= rows:
                raise ValueError(f"row outside {rows}x{cols} matrix")
            if 0 in values:
                columns = [{i: v for i, v in col.items() if v}
                           for col in columns]
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "columns", tuple(columns))

    @classmethod
    def from_rows(cls, rows_data: Sequence[Sequence[int]]) -> "RationalMatrix":
        nrows = len(rows_data)
        ncols = len(rows_data[0]) if nrows else 0
        if any(len(row) != ncols for row in rows_data):
            raise ValueError("ragged rows")
        return cls(nrows, ncols, [dict(enumerate(col))
                                  for col in zip(*rows_data)])

    def entries(self) -> dict[tuple[int, int], int]:
        """The nonzero entries as {(row, column): value}, column by column."""
        return {(i, j): v for j, col in enumerate(self.columns)
                for i, v in col.items()}

    def is_zero(self) -> bool:
        return not any(self.columns)

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        left = self.columns
        out = []
        for col in other.columns:
            acc: dict[int, int] = {}
            for k, w in col.items():
                for i, v in left[k].items():
                    acc[i] = acc.get(i, 0) + v * w
            out.append({i: v for i, v in acc.items() if v})
        return RationalMatrix(self.rows, other.cols, out)

    def __repr__(self):
        nonzero = sum(map(len, self.columns))
        return f"RationalMatrix({self.rows}x{self.cols}, {nonzero} nonzero)"


def column_pivots(m: RationalMatrix, order: Optional[Iterable[int]] = None,
                  row_key: Optional[Callable[[int], object]] = None
                  ) -> dict[int, tuple[int, dict[int, int]]]:
    """Left-to-right column reduction of m: {column: (pivot row, column)}.

    Columns are taken in `order` (default: left to right), each a copy of
    the stored column. Each is reduced against the earlier pivot columns
    until its lowest row, the maximum under `row_key` (default: the row
    index), is not yet a pivot row, or until it vanishes; only pivot columns
    are returned, {row: integer} divided by their content, with a positive
    pivot entry. The update new = (p/g) * column - (c/g) * pivot_column, g =
    gcd(p, c), keeps all arithmetic in Z; as p > 0, it runs in place when
    p/g = 1, and a scaled result is divided by its content. Every column is
    then a positive multiple of the one a division after each update gives,
    with the same pivot rows and stored columns: a positive scale moves no
    pivot row, nor does the sign of a stored pivot column.
    """
    columns = m.columns
    by_row: dict[int, dict[int, int]] = {}
    pivots: dict[int, tuple[int, dict[int, int]]] = {}
    for j in range(m.cols) if order is None else order:
        col = dict(columns[j])  # a copy, so it can be updated in place
        while col:
            low = max(col, key=row_key)
            prev = by_row.get(low)
            if prev is None:
                col = _content_free(col)
                if col[low] < 0:
                    col = {i: -v for i, v in col.items()}
                by_row[low] = col
                pivots[j] = (low, col)
                break
            p, c = prev[low], col[low]
            g = gcd(p, c)
            p, c = p // g, c // g
            new = {i: p * v for i, v in col.items()} if p != 1 else col
            for i, v in prev.items():
                w = new.get(i, 0) - c * v
                if w:
                    new[i] = w
                else:
                    del new[i]
            col = new if p == 1 else _content_free(new)
    return pivots


def _content_free(col: dict[int, int]) -> dict[int, int]:
    """An integer column divided by the gcd of its entries; col itself when
    that gcd is 1 (or col is empty)."""
    content = gcd(*col.values())
    if content <= 1:
        return col
    return {i: v // content for i, v in col.items()}


def rank(m: RationalMatrix) -> int:
    """Exact rank of m over Q: the number of pivots of its column reduction."""
    return len(column_pivots(m))


def kernel_basis(m: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel {x : m x = 0} as primitive integer vectors.

    The reduction of m stacked over the identity, with the identity rows
    below every row of m, leaves one column per free column of m whose m
    part vanishes; its identity part is a kernel vector.
    """
    n = m.rows
    stacked = RationalMatrix(n + m.cols, m.cols, [
        {**col, n + j: 1} for j, col in enumerate(m.columns)])
    return [tuple(Fraction(col.get(n + k, 0)) for k in range(m.cols))
            for low, col in column_pivots(
                stacked, row_key=lambda i: (i < n, i)).values()
            if low >= n]


def _cleared(vec: Sequence) -> list:
    """vec times the lcm of the denominators of its Fraction entries, as
    ints: a positive scale, so the span is kept. Entries of other types are
    left for the matrix constructor to reject."""
    d = lcm(*(x.denominator for x in vec if type(x) is Fraction))
    return [int(x * d) if type(x) in (int, Fraction) else x for x in vec]


def subspace_dims(u: Iterable[Sequence], v: Iterable[Sequence]) -> tuple[int, int, int, int]:
    """(dim span u, dim span v, dim of the sum, dim of the intersection).

    Vectors have int or Fraction entries. The intersection dimension comes
    from dim(U) + dim(V) - dim(U+V); all four numbers are exact. Vectors of
    different lengths raise ValueError.
    """
    u, v = [_cleared(x) for x in u], [_cleared(x) for x in v]
    dim_u = rank(RationalMatrix.from_rows(u))
    dim_v = rank(RationalMatrix.from_rows(v))
    dim_sum = rank(RationalMatrix.from_rows(u + v))
    return (dim_u, dim_v, dim_sum, dim_u + dim_v - dim_sum)
