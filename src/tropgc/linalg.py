"""Exact sparse linear algebra over the rationals.

Matrices normalize each entry once, when they are built: an integral value
is stored as an int and any other as a fractions.Fraction. Every operation
is exact; no floating point appears anywhere. Graph complex boundaries are
integral, so their products (the d o d check) and their reductions run on
int throughout. There is one elimination, column_pivots: a fraction-free,
left-to-right column reduction that clears each column to a primitive
integer vector and reduces it against earlier pivot columns until its
lowest row is new. The rank is the number of pivots. By the pairing lemma
of persistence (Cohen-Steiner, Edelsbrunner and Morozov, "Vines and
vineyards", 2006), with columns and rows ordered by a filtration, the rank
of every lower-left block is the number of pivots inside it. A column known
to lie in the span of the columns before it reduces to zero and can be left
out of the order without changing any other pivot; the chain complexes use
this to skip the columns that the reduction of the next boundary clears
(Chen and Kerber, "Persistent homology computation with a twist", EuroCG
2011). Kernels come from the reduction of m stacked over the identity, and
subspace dimensions from ranks.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, Optional, Sequence

Scalar = int | Fraction
Vector = tuple[Scalar, ...]


def _exact(x) -> Scalar:
    """x as an int when it is integral, else as a Fraction; x may be an int,
    a Fraction or a string such as "3/4", and anything else is rejected."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"not an exact rational: {x!r}")


class RationalMatrix:
    """Immutable sparse matrix over Q; absent entries are exactly zero. The
    constructor stores an integral entry as an int, any other as a Fraction."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int,
                 entries: Mapping[tuple[int, int], Scalar | str] = ()):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        clean: dict[tuple[int, int], Scalar] = {}
        items = entries.items() if isinstance(entries, Mapping) else entries
        for (i, j), x in items:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i},{j}) outside {rows}x{cols} matrix")
            v = _exact(x)
            if v:
                clean[(i, j)] = v
        object.__setattr__(self, "_entries", clean)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def from_rows(cls, rows_data: Sequence[Sequence]) -> "RationalMatrix":
        nrows = len(rows_data)
        ncols = len(rows_data[0]) if nrows else 0
        if any(len(row) != ncols for row in rows_data):
            raise ValueError("ragged rows")
        return cls(nrows, ncols, {(i, j): x for i, row in enumerate(rows_data)
                                  for j, x in enumerate(row)})

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols)

    def entries(self) -> dict[tuple[int, int], Scalar]:
        return dict(self._entries)

    def is_zero(self) -> bool:
        return not self._entries

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        by_row: dict[int, list[tuple[int, Scalar]]] = {}
        for (i, j), v in other._entries.items():
            by_row.setdefault(i, []).append((j, v))
        acc: dict[tuple[int, int], Scalar] = {}
        for (i, k), v in self._entries.items():
            for j, w in by_row.get(k, ()):
                key = (i, j)
                acc[key] = acc.get(key, 0) + v * w
        return RationalMatrix(self.rows, other.cols, acc)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self._entries == other._entries)

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols}, {len(self._entries)} nonzero)"


def column_pivots(m: RationalMatrix, order: Optional[Iterable[int]] = None,
                  row_key: Optional[Callable[[int], object]] = None
                  ) -> dict[int, tuple[int, dict[int, int]]]:
    """Left-to-right column reduction of m: {column: (pivot row, column)}.

    Columns are taken in `order` (default: left to right) as primitive
    integer vectors. Each is reduced against the earlier pivot columns until
    its lowest row, the maximum under `row_key` (default: the row index), is
    not yet a pivot row, or until it vanishes; only pivot columns are
    returned, with their reduced entries {row: integer}. The update
    new = (p/g) * column - (c/g) * pivot_column, g = gcd(p, c), followed by
    content removal keeps all arithmetic in Z.
    """
    cols: dict[int, dict[int, Scalar]] = {}
    for (i, j), v in m._entries.items():
        cols.setdefault(j, {})[i] = v
    by_row: dict[int, dict[int, int]] = {}
    pivots: dict[int, tuple[int, dict[int, int]]] = {}
    for j in range(m.cols) if order is None else order:
        col = _primitive(cols.get(j, {}))
        while col:
            low = max(col, key=row_key)
            prev = by_row.get(low)
            if prev is None:
                by_row[low] = col
                pivots[j] = (low, col)
                break
            p, c = prev[low], col[low]
            g = gcd(p, c)
            p, c = p // g, c // g
            # col is not shared yet, so with p = 1 it is updated in place
            new = {i: p * v for i, v in col.items()} if p != 1 else col
            for i, v in prev.items():
                w = new.get(i, 0) - c * v
                if w:
                    new[i] = w
                else:
                    del new[i]
            col = _content_free(new)
    return pivots


def _primitive(col: Mapping[int, Scalar]) -> dict[int, int]:
    """col scaled by a positive rational to coprime integer entries."""
    denom = lcm(*(v.denominator for v in col.values()))
    return _content_free({i: v.numerator * (denom // v.denominator)
                          for i, v in col.items()})


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


def kernel_basis(m: RationalMatrix) -> list[Vector]:
    """Basis of the right kernel {x : m x = 0} as primitive integer vectors.

    The reduction of m stacked over the identity, with the identity rows
    below every row of m, leaves one column per free column of m whose m
    part vanishes; its identity part is a kernel vector.
    """
    n = m.rows
    stacked = RationalMatrix(n + m.cols, m.cols, {
        **m._entries, **{(n + j, j): 1 for j in range(m.cols)}})
    return [tuple(Fraction(col.get(n + k, 0)) for k in range(m.cols))
            for low, col in column_pivots(
                stacked, row_key=lambda i: (i < n, i)).values()
            if low >= n]


def subspace_dims(u: Iterable[Sequence], v: Iterable[Sequence]) -> tuple[int, int, int, int]:
    """(dim span u, dim span v, dim of the sum, dim of the intersection).

    The intersection dimension comes from dim(U) + dim(V) - dim(U+V); all
    four numbers are exact. Vectors of different lengths raise ValueError.
    """
    u, v = list(u), list(v)
    dim_u = rank(RationalMatrix.from_rows(u))
    dim_v = rank(RationalMatrix.from_rows(v))
    dim_sum = rank(RationalMatrix.from_rows(u + v))
    return (dim_u, dim_v, dim_sum, dim_u + dim_v - dim_sum)
