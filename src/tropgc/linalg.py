"""Exact sparse linear algebra over the rationals.

All entries are fractions.Fraction values and every operation is exact; no
floating point appears anywhere. Ranks are computed by fraction-free
elimination, which also yields kernels and subspace dimensions: rows are
cleared to integers up front and row updates use the Bareiss-style
cross-multiplication rule followed by content (gcd) removal, so
intermediate values stay integers of modest size. Pivots are chosen by
sparsity.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

Vector = tuple[Fraction, ...]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class RationalMatrix:
    """Immutable sparse matrix over Q; absent entries are exactly zero."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int,
                 entries: Mapping[tuple[int, int], Fraction | int | str] = ()):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        clean: dict[tuple[int, int], Fraction] = {}
        items = entries.items() if isinstance(entries, Mapping) else entries
        for (i, j), x in items:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i},{j}) outside {rows}x{cols} matrix")
            v = _as_fraction(x)
            if v != 0:
                clean[(i, j)] = v
        object.__setattr__(self, "_entries", clean)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def from_rows(cls, rows_data: Sequence[Sequence]) -> "RationalMatrix":
        nrows = len(rows_data)
        ncols = len(rows_data[0]) if nrows else 0
        entries = {}
        for i, row in enumerate(rows_data):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, x in enumerate(row):
                v = _as_fraction(x)
                if v != 0:
                    entries[(i, j)] = v
        return cls(nrows, ncols, entries)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, {(i, i): Fraction(1) for i in range(n)})

    def entry(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return self._entries.get((i, j), Fraction(0))

    def entries(self) -> dict[tuple[int, int], Fraction]:
        return dict(self._entries)

    def is_zero(self) -> bool:
        return not self._entries

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(self.cols, self.rows,
                              {(j, i): v for (i, j), v in self._entries.items()})

    def column(self, j: int) -> Vector:
        return tuple(self._entries.get((i, j), Fraction(0)) for i in range(self.rows))

    def to_rows(self) -> list[list[Fraction]]:
        out = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for (i, j), v in self._entries.items():
            out[i][j] = v
        return out

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        by_row: dict[int, list[tuple[int, Fraction]]] = {}
        for (i, j), v in other._entries.items():
            by_row.setdefault(i, []).append((j, v))
        acc: dict[tuple[int, int], Fraction] = {}
        for (i, k), v in self._entries.items():
            for j, w in by_row.get(k, ()):
                key = (i, j)
                acc[key] = acc.get(key, Fraction(0)) + v * w
        return RationalMatrix(self.rows, other.cols, acc)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self._entries == other._entries)

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self._entries.items())))

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols}, {len(self._entries)} nonzero)"


def _integer_rows(m: RationalMatrix) -> list[dict[int, int]]:
    """Rows of m as sparse integer dicts, each scaled by a positive rational."""
    rows: list[dict[int, int]] = [{} for _ in range(m.rows)]
    for (i, j), v in m.entries().items():
        rows[i][j] = v
    out = []
    for row in rows:
        if not row:
            continue
        denom_lcm = 1
        for v in row.values():
            denom_lcm = denom_lcm * v.denominator // gcd(denom_lcm, v.denominator)
        ints = {j: int(v * denom_lcm) for j, v in row.items()}
        content = 0
        for v in ints.values():
            content = gcd(content, v)
        out.append({j: v // content for j, v in ints.items()})
    return out


def _reduce_content(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g <= 1:
        return row
    return {j: v // g for j, v in row.items()}


def _eliminate(rows: list[dict[int, int]]) -> list[tuple[int, dict[int, int]]]:
    """Forward elimination; returns (pivot column, row) pairs spanning the row space.

    Pivot rows are chosen by fewest nonzeros, pivot columns by fewest
    occurrences among the remaining rows; elimination uses the fraction-free
    rule new = pivot_value * row - row[c] * pivot_row followed by content
    removal, so all arithmetic stays in Z.
    """
    active = [r for r in rows if r]
    done: list[tuple[int, dict[int, int]]] = []
    while active:
        col_count: dict[int, int] = {}
        for r in active:
            for j in r:
                col_count[j] = col_count.get(j, 0) + 1
        best = None
        for idx, r in enumerate(active):
            for j, v in r.items():
                key = (len(r), col_count[j], abs(v), j, idx)
                if best is None or key < best[0]:
                    best = (key, idx, j)
        _, idx, c = best
        pivot_row = active.pop(idx)
        p = pivot_row[c]
        nxt = []
        for r in active:
            if c in r:
                f = r[c]
                new = {}
                for j in set(r) | set(pivot_row):
                    v = p * r.get(j, 0) - f * pivot_row.get(j, 0)
                    if v:
                        new[j] = v
                if new:
                    nxt.append(_reduce_content(new))
            else:
                nxt.append(r)
        active = nxt
        done.append((c, pivot_row))
    return done


def rank(m: RationalMatrix) -> int:
    """Exact rank of m over Q."""
    return len(_eliminate(_integer_rows(m)))


def _reduced_echelon(m: RationalMatrix) -> list[tuple[int, dict[int, int]]]:
    """Echelon rows with each pivot column cleared from every other row."""
    done = _eliminate(_integer_rows(m))
    for k in range(len(done) - 1, -1, -1):
        c, prow = done[k]
        p = prow[c]
        for t in range(k):
            ct, r = done[t]
            if c in r:
                f = r[c]
                new = {}
                for j in set(r) | set(prow):
                    v = p * r.get(j, 0) - f * prow.get(j, 0)
                    if v:
                        new[j] = v
                done[t] = (ct, _reduce_content(new))
    return done


def _normalize_vector(vec: list[Fraction]) -> Vector:
    """Scale to a primitive integer vector whose first nonzero entry is positive."""
    denom_lcm = 1
    for v in vec:
        denom_lcm = denom_lcm * v.denominator // gcd(denom_lcm, v.denominator)
    ints = [int(v * denom_lcm) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g:
        ints = [v // g for v in ints]
        for v in ints:
            if v:
                if v < 0:
                    ints = [-x for x in ints]
                break
    return tuple(Fraction(v) for v in ints)


def kernel_basis(m: RationalMatrix) -> list[Vector]:
    """Basis of the right kernel {x : m x = 0}, one vector per free column."""
    done = _reduced_echelon(m)
    pivot_cols = {c: row for c, row in done}
    basis = []
    for f in range(m.cols):
        if f in pivot_cols:
            continue
        vec = [Fraction(0)] * m.cols
        vec[f] = Fraction(1)
        for c, row in pivot_cols.items():
            if f in row:
                vec[c] = Fraction(-row[f], row[c])
        basis.append(_normalize_vector(vec))
    return basis


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
