"""Exact rational linear algebra: ranks, kernels, subspace dimensions."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropgc import (
    ChainComplex,
    FilteredComplex,
    RationalMatrix,
    WeightDatum,
    build_graph_complex,
    compare_up_to_symmetry,
    enumerate_chambers,
    feasible_point,
    filtered_from_raw,
    kernel_basis,
    make_floor,
    make_heavy_light,
    make_minimal,
    page_dim,
    rank,
    subspace_dims,
)
from tropgc import complexes
from tropgc.complexes import RELATIVE, boundary_pivots, restrict
from tropgc.graphs import has_loops, is_stable
from tropgc.linalg import column_pivots

from .oracles import dense_rank, to_rows, transpose
from .test_graphs import COPIES

ONE_THIRD = Fraction(1, 3)
FIVE_CHAMBER_RAW = [
    WeightDatum(1, (ONE_THIRD, ONE_THIRD, ONE_THIRD - Fraction(1, 100))),
    WeightDatum(1, (Fraction(4, 9) - Fraction(1, 100),) * 3),
    WeightDatum(1, (Fraction(14, 27) - Fraction(1, 100), Fraction(12, 27),
                    Fraction(14, 27))),
    WeightDatum(1, (Fraction(99, 100), Fraction(12, 27), Fraction(14, 27))),
    WeightDatum(1, (Fraction(1),) * 3),
]


def classical(g: int, n: int) -> WeightDatum:
    return WeightDatum(g, (Fraction(1),) * n)


def census_chain(seed: int):
    """A random chain of (1,3) chambers, each Less or Equal to the next."""
    points = [feasible_point(s) for s in enumerate_chambers(1, 3).chambers]
    rng = random.Random(seed)
    cur = rng.randrange(len(points))
    chain = [points[cur]]
    for _ in range(rng.randint(1, 3)):
        cur = rng.choice([j for j in range(len(points))
                          if compare_up_to_symmetry(points[j], points[cur])
                          .relation in ("Less", "Equal")])
        chain.append(points[cur])
    return 1, chain[::-1]


CHAINS = {
    "five-chamber": lambda: (1, FIVE_CHAMBER_RAW),
    "heavy-light": lambda: (1, [make_heavy_light(1, 3, m) for m in (0, 1, 2)]),
    "floor-g2": lambda: (2, [make_minimal(2, 3), make_floor(2, 3, 3),
                             classical(2, 3)]),
    "census-1": lambda: census_chain(1),
    "census-2": lambda: census_chain(2),
    "census-3": lambda: census_chain(3),
    "census-4": lambda: census_chain(4),
}


class TestEntries:
    @pytest.mark.parametrize("value", [2, -3])
    def test_integral_values_are_stored_as_int(self, value):
        [stored] = RationalMatrix(1, 1, [{0: value}]).entries().values()
        assert type(stored) is int and stored == value

    @pytest.mark.parametrize("value", [Fraction(4, 2), Fraction(3, 4)])
    def test_fractions_are_rejected(self, value):
        # ranks of rational matrices are ranks of their cleared integer
        # columns; the matrices themselves hold ints only
        message = re.escape(f"not an integer entry: {value!r}")
        with pytest.raises(TypeError, match=message):
            RationalMatrix(1, 1, [{0: value}])
        with pytest.raises(TypeError, match=message):
            RationalMatrix.from_rows([[1, value]])

    def test_float_is_rejected(self):
        with pytest.raises(TypeError, match="not an integer entry"):
            RationalMatrix(1, 1, [{0: 1.5}])

    @pytest.mark.parametrize("value", ["4/2", "-1/3", True, False])
    def test_text_and_bool_are_rejected(self, value):
        # bool is an int subclass, so True would be stored as the entry 1
        message = re.escape(f"not an integer entry: {value!r}")
        with pytest.raises(TypeError, match=message):
            RationalMatrix(1, 1, [{0: value}])

    def test_zero_entries_are_dropped(self):
        m = RationalMatrix.from_rows([[0, 3], [0, 0]])
        assert m.columns == ({}, {0: 3})
        assert m.entries() == {(0, 1): 3}
        assert RationalMatrix(2, 2, [{1: 0}, {}]).is_zero()

    @pytest.mark.parametrize("columns", [[{}], [{}, {}, {}], [{2: 1}, {}],
                                         [{-1: 1}, {}]])
    def test_column_count_and_rows_are_checked(self, columns):
        with pytest.raises(ValueError):
            RationalMatrix(2, 2, columns)

    def test_graph_complex_and_slices_have_int_entries(self):
        cx = build_graph_complex(1, classical(1, 4))
        lower = WeightDatum(1, (1, 1, Fraction(1, 10), Fraction(1, 10)))
        flags = [[is_stable(cg.graph, 1, lower) for cg in basis]
                 for basis in cx.bases]
        sub = restrict(cx, flags, cx.kind)
        rel = restrict(cx, [[not f for f in row] for row in flags], RELATIVE)
        for c in (cx, sub, rel):
            values = [v for m in c.boundaries for v in m.entries().values()]
            assert values and all(type(v) is int for v in values)


class TestRecord:
    """A frozen record of (rows, cols, columns): equal by its fields, not
    hashable (its columns are dicts), copied and pickled by its fields."""

    M = RationalMatrix(2, 1, [{1: 3}])

    def test_fields_are_read_only(self):
        for name in ("rows", "cols", "columns"):
            with pytest.raises(AttributeError):
                setattr(self.M, name, ())
        assert (self.M.rows, self.M.cols, self.M.columns) == (2, 1, ({1: 3},))

    def test_equality_repr_and_no_hash(self):
        m = self.M
        assert m == RationalMatrix.from_rows([[0], [3]])
        assert m != RationalMatrix(2, 1, [{0: 3}])
        assert m != (2, 1, ({1: 3},)) and m != m.columns
        assert repr(m) == "RationalMatrix(2x1, 1 nonzero)"
        for matrix in (m, RationalMatrix(0, 0)):
            with pytest.raises(TypeError, match="unhashable"):
                hash(matrix)

    @pytest.mark.parametrize("copier", COPIES)
    def test_copies_are_equal(self, copier):
        copied = copier(self.M)
        assert type(copied) is RationalMatrix and copied == self.M
        with pytest.raises(AttributeError):
            copied.rows = 3


class TestRank:
    def test_identity(self):
        assert rank(RationalMatrix.from_rows([[1, 0], [0, 1]])) == 2

    def test_zero(self):
        assert rank(RationalMatrix(3, 5)) == 0

    def test_graph_complex_boundary_degree_zero(self):
        cx = build_graph_complex(1, classical(1, 3))
        d0 = cx.boundary(0)
        assert (d0.rows, d0.cols) == (1, 4)
        assert rank(d0) == 1

    def test_rank_equals_transpose_rank_on_boundaries(self):
        cx = build_graph_complex(1, classical(1, 3))
        for k in (0, 1):
            d = cx.boundary(k)
            assert rank(d) == rank(transpose(d))


class TestKernel:
    def test_zero_matrix_kernel_is_full(self):
        assert len(kernel_basis(RationalMatrix(3, 5))) == 5

    def test_identity_kernel_is_trivial(self):
        assert kernel_basis(RationalMatrix.from_rows([[1, 0], [0, 1]])) == []

    def test_degree_one_kernel_spans_triangle_class(self):
        cx = build_graph_complex(1, classical(1, 3))
        d1 = cx.boundary(1)
        assert (d1.rows, d1.cols) == (4, 4)
        assert rank(d1) == 3
        kern = kernel_basis(d1)
        assert len(kern) == 1
        support = [j for j, x in enumerate(kern[0]) if x != 0]
        triangle = [j for j, cg in enumerate(cx.basis(1))
                    if len(cg.graph.weights) == 3
                    and not has_loops(cg.graph)]
        assert support == triangle

    def test_kernel_vectors_annihilated(self):
        cx = build_graph_complex(1, classical(1, 3))
        d1 = cx.boundary(1)
        for vec in kernel_basis(d1):
            for row in to_rows(d1):
                assert sum(x * y for x, y in zip(row, vec)) == 0


class TestSubspaceDims:
    def test_transverse_lines(self):
        assert subspace_dims([(1, 0)], [(0, 1)]) == (1, 1, 2, 0)

    def test_equal_lines(self):
        assert subspace_dims([(1, 1)], [(1, 1)]) == (1, 1, 1, 1)

    def test_denominators_are_cleared(self):
        half = Fraction(1, 2)
        assert subspace_dims([(half, 1)], [(1, 2)]) == (1, 1, 1, 1)
        assert subspace_dims([(half, Fraction(1, 3))], [(3, 2), (1, 0)]) \
            == (1, 2, 2, 1)

    def test_float_vectors_are_rejected(self):
        with pytest.raises(TypeError, match="not an integer entry"):
            subspace_dims([(0.5, 1)], [])

    def test_mismatched_ambient_dimensions_rejected(self):
        with pytest.raises(ValueError):
            subspace_dims([(1, 0)], [(1, 0, 0)])

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_every_page_matches_definition(self, chain):
        f = filtered_from_raw(*CHAINS[chain]())
        n_levels = f.num_levels
        for r in range(n_levels + 2):
            for d in f.base.degrees:
                for p in range(1, n_levels + 1):
                    assert page_dim(f, r, p, d - p) == \
                        page_dim_by_definition(f, r, p, d), (r, p, d)


    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_block_ranks_match_dense_oracle(self, chain):
        f = filtered_from_raw(*CHAINS[chain]())
        n_levels = f.num_levels
        for d in f.base.degrees:
            dense = to_rows(f.base.boundary(d))
            lev_rows, lev_cols = f.level_row(d - 1), f.level_row(d)
            for a in range(1, n_levels + 1):
                for b in range(a, n_levels + 1):
                    block = [[x for x, lc in zip(row, lev_cols) if lc <= b]
                             for row, lr in zip(dense, lev_rows) if lr >= a]
                    assert block_rank(f, d, a, b) == dense_rank(block), \
                        (d, a, b)

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_block_rank_pivots_match_uncleared_reduction(self, chain,
                                                         monkeypatch):
        # One reduction per degree without clearing, columns by level and
        # rows keyed by (level, index), as before the top-down pass.
        f = filtered_from_raw(*CHAINS[chain]())
        orders = {}

        def recording(m, order=None, row_key=None):
            orders[id(m)] = list(order)
            return column_pivots(m, order, row_key)

        monkeypatch.setattr(complexes, "column_pivots", recording)
        pairs = f.pairs
        monkeypatch.undo()
        cleared = dict(boundary_pivots(f.base, f.levels))
        skipped = set()
        for d in reversed(f.base.degrees):
            lev_cols = f.level_row(d)
            assert orders[id(f.base.boundary(d))] == sorted(
                set(range(len(lev_cols))) - skipped,
                key=lambda j: (lev_cols[j], j)), d
            skipped = set(cleared[d].values())
        for d in f.base.degrees:
            lev_rows, lev_cols = f.level_row(d - 1), f.level_row(d)
            full = column_pivots(
                f.base.boundary(d),
                order=sorted(range(len(lev_cols)), key=lev_cols.__getitem__),
                row_key=lambda i: (lev_rows[i], i))
            assert cleared[d] == {j: low for j, (low, _) in full.items()}, d
            assert (sorted(pairs[d])
                    == sorted((lev_cols[j], lev_rows[i])
                              for j, (i, _) in full.items())), d


def block_rank(f, d: int, a: int, b: int) -> int:
    """R_d(a, b), the rank of boundary(d) on the columns of level <= b and
    the rows of level >= a, counted as the pairs of f in that block (the
    pairing lemma)."""
    return sum(c <= b and l >= a for c, l in f.pairs.get(d, ()))


def one_step_filtered(rows, row_levels, col_levels) -> FilteredComplex:
    """C_1 -> C_0 with boundary rows, filtered in three levels."""
    m = RationalMatrix.from_rows(rows)
    base = ChainComplex("graph", 1, None, (0, 1),
                        ((None,) * m.rows, (None,) * m.cols),
                        (RationalMatrix(0, m.rows), m))
    return FilteredComplex((None,) * 3, base,
                           (tuple(row_levels), tuple(col_levels)))


def page_dim_by_definition(f, r: int, p: int, d: int) -> int:
    """dim Z - dim(Z ∩ W) for Z = {x in F_p C_d : dx in F_{p-r}} and
    W = F_{p-1} + d F_{p+r-1}, from kernels and spans of dense vectors."""
    lev = f.level_row(d)
    lev_below = f.level_row(d - 1)
    cols = [j for j, lv in enumerate(lev) if lv <= p]
    bnd = f.base.boundary(d)
    block = RationalMatrix(bnd.rows, len(cols), [
        {i: v for i, v in bnd.columns[j].items() if lev_below[i] > p - r}
        for j in cols])
    z_vecs = []
    for vec in kernel_basis(block):
        dense = [Fraction(0)] * len(lev)
        for b, j in enumerate(cols):
            dense[j] = vec[b]
        z_vecs.append(dense)
    w_vecs = [[Fraction(int(i == j)) for i in range(len(lev))]
              for j, lv in enumerate(lev) if lv <= p - 1]
    above = to_rows(f.base.boundary(d + 1))
    w_vecs += [[row[j] for row in above]
               for j, lv in enumerate(f.level_row(d + 1)) if lv <= p + r - 1]
    dim_z, _, _, dim_int = subspace_dims(z_vecs, w_vecs)
    return dim_z - dim_int


def matrices(entry):
    return st.integers(min_value=1, max_value=5).flatmap(
        lambda r: st.integers(min_value=1, max_value=5).flatmap(
            lambda c: st.lists(st.lists(entry, min_size=c, max_size=c),
                               min_size=r, max_size=r)))


small_fraction = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)
small_matrix = matrices(st.integers(min_value=-6, max_value=6))
# rows of rational vectors, for subspace_dims
fraction_rows = matrices(small_fraction)
leveled_matrix = small_matrix.flatmap(lambda rows: st.tuples(
    st.just(rows),
    st.lists(st.integers(1, 3), min_size=len(rows), max_size=len(rows)),
    st.lists(st.integers(1, 3), min_size=len(rows[0]),
             max_size=len(rows[0]))))


class TestRandomized:
    @settings(max_examples=120, deadline=None)
    @given(small_matrix)
    def test_rank_matches_dense_oracle(self, rows):
        m = RationalMatrix.from_rows(rows)
        assert rank(m) == dense_rank(rows)

    @settings(max_examples=80, deadline=None)
    @given(small_matrix)
    def test_rank_invariant_under_transpose(self, rows):
        m = RationalMatrix.from_rows(rows)
        assert rank(m) == rank(transpose(m))

    @settings(max_examples=80, deadline=None)
    @given(small_matrix)
    def test_rank_nullity(self, rows):
        m = RationalMatrix.from_rows(rows)
        kern = kernel_basis(m)
        assert len(kern) == m.cols - dense_rank(rows)
        for vec in kern:
            for row in to_rows(m):
                assert sum(x * y for x, y in zip(row, vec)) == 0

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                    min_size=1, max_size=5), st.data())
    def test_pivots_ignore_column_signs(self, rows, data):
        m = RationalMatrix.from_rows(rows)
        j = data.draw(st.integers(0, m.cols - 1))
        flipped = RationalMatrix(m.rows, m.cols, [
            {i: -v for i, v in col.items()} if k == j else col
            for k, col in enumerate(m.columns)])
        pivots = column_pivots(m)
        assert ({k: low for k, (low, _) in pivots.items()}
                == {k: low for k, (low, _) in column_pivots(flipped).items()})
        assert all(col[low] > 0 for low, col in pivots.values())

    @settings(max_examples=120, deadline=None)
    @given(leveled_matrix)
    def test_pivots_count_every_block_rank(self, case):
        # block ranks of a one-step complex C_1 -> C_0 with these levels
        rows, row_levels, col_levels = case
        f = one_step_filtered(rows, row_levels, col_levels)
        for a in range(1, 5):
            for b in range(0, 4):
                block = [[x for x, lv in zip(row, col_levels) if lv <= b]
                         for row, lv in zip(rows, row_levels) if lv >= a]
                assert block_rank(f, 1, a, b) == dense_rank(block), (a, b)

    @settings(max_examples=120, deadline=None)
    @given(leveled_matrix)
    def test_pages_of_random_filtered_complex(self, case):
        # entries only where the row level is at most the column level, so
        # the boundary respects the filtration
        rows, row_levels, col_levels = case
        rows = [[x if lr <= lc else 0 for x, lc in zip(row, col_levels)]
                for row, lr in zip(rows, row_levels)]
        f = one_step_filtered(rows, row_levels, col_levels)
        for r in range(5):
            for p in range(1, 4):
                for d in (0, 1):
                    assert page_dim(f, r, p, d - p) == \
                        page_dim_by_definition(f, r, p, d), (r, p, d)

    @settings(max_examples=60, deadline=None)
    @given(fraction_rows)
    def test_subspace_dims_of_row_space_with_itself(self, rows):
        nonzero = [r for r in rows if any(x != 0 for x in r)]
        dim_u, dim_v, dim_sum, dim_int = subspace_dims(nonzero, nonzero)
        assert dim_u == dim_v == dim_sum == dim_int == dense_rank(rows)

    @settings(max_examples=60, deadline=None)
    @given(small_matrix.flatmap(lambda rows: st.tuples(
        st.just(rows),
        st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2),
                 min_size=len(rows[0]), max_size=len(rows[0])))))
    def test_matmul_matches_dense_product(self, case):
        a_rows, b_rows = case
        prod = RationalMatrix.from_rows(a_rows).matmul(
            RationalMatrix.from_rows(b_rows))
        dense = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b_rows)]
                 for row in a_rows]
        assert to_rows(prod) == dense
        assert all(type(v) is int for v in prod.entries().values())
