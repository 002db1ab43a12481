"""Graph, cellular, and relative chain complexes and their homology."""

import hashlib
from fractions import Fraction
from unittest import mock
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from tropgc import (
    ChainComplex,
    DomainError,
    RationalMatrix,
    WeightDatum,
    build_cellular_complex,
    build_graph_complex,
    build_relative_complex,
    enumerate_stable_graphs,
    filtered_from_raw,
    homology,
    make_floor,
    make_heavy_light,
    make_minimal,
    max_edges,
    moduli_label,
    rank,
    split_AB,
)
from tropgc import complexes, enumeration, graphs
from tropgc.complexes import boundary_pivots
from tropgc.enumeration import CELLULAR, generator_basis
from tropgc.graphs import (MarkedGraph, canonicalize, contract_edge,
                          has_loops, is_pure)
from tropgc.linalg import column_pivots

from .oracles import (_parity, decode_graph, dense_rank, encode_graph,
                      graph_betti, reference_canonicalize, to_rows)
from .test_enumeration import file_key

EPS = Fraction(1, 100)
CLASSICAL2 = WeightDatum(1, (Fraction(1),) * 2)
CLASSICAL3 = WeightDatum(1, (Fraction(1),) * 3)
CLASSICAL4 = WeightDatum(1, (Fraction(1),) * 4)
MINIMAL3 = WeightDatum(1, (Fraction(1, 3), Fraction(1, 3), Fraction(33, 100)))
NEAR_F3 = WeightDatum(1, (Fraction(4, 9) - EPS,) * 3)

# generators of the genus-2 graph complex in degree 2: a theta-like core
# with a tail (G shapes) or two trivalent branch vertices (H shapes)
SIX_DEGREE_TWO = [
    MarkedGraph((0, 0, 0, 0, 0),
                ((0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)),
                legs)
    for legs in [(4, 0, 0), (0, 4, 0), (0, 0, 4)]
] + [
    MarkedGraph((0, 0, 0, 0, 0),
                ((0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 4)),
                legs)
    for legs in [(4, 0, 1), (0, 4, 1), (0, 1, 4)]
]


def check_cellular_route(g, a, betti):
    """Chan-Galatius-Payne: the reduced homology of the cellular complex,
    and of its A part, is the graph-complex homology betti shifted by
    2g - 1, and the B part is acyclic."""
    cell = build_cellular_complex(g, a)
    shifted = {k: betti.get(k - (2 * g - 1), 0) for k in cell.degrees}
    a_part, b_part = split_AB(cell)
    assert homology(cell).betti == shifted
    assert homology(a_part).betti == shifted
    assert not any(homology(b_part).betti.values())


class TestGraphComplex:
    def test_classical_three_markings_shape(self):
        cx = build_graph_complex(1, CLASSICAL3)
        assert cx.degrees == (-1, 0, 1)
        assert [cx.dim(k) for k in (-1, 0, 1)] == [1, 4, 4]
        assert rank(cx.boundary(0)) == 1
        assert rank(cx.boundary(1)) == 3

    def test_minimal_chamber_shape(self):
        cx = build_graph_complex(1, MINIMAL3)
        assert [cx.dim(k) for k in (-1, 0, 1)] == [1, 0, 1]
        for k in (-1, 0, 1):
            assert cx.boundary(k).is_zero()

    def test_genus_two_degree_two_basis(self):
        cx = build_graph_complex(2, WeightDatum(2, (Fraction(1),) * 3))
        basis = set(cx.basis(2))
        for graph in SIX_DEGREE_TWO:
            assert canonicalize(graph)[0] in basis

    def test_boundary_squares_to_zero(self):
        for cx in (build_graph_complex(1, CLASSICAL3),
                   build_graph_complex(1, CLASSICAL4),
                   build_graph_complex(0, WeightDatum(0, (Fraction(1),) * 4))):
            for k in cx.degrees:
                assert cx.boundary(k).matmul(cx.boundary(k + 1)).is_zero()

    def test_rank_matches_dense_oracle(self):
        for a in (CLASSICAL3, CLASSICAL4, NEAR_F3):
            cx = build_graph_complex(1, a)
            for k in cx.degrees:
                d = cx.boundary(k)
                assert rank(d) == dense_rank(to_rows(d))


class TestGraphHomology:
    def test_classical_three_markings(self):
        rep = homology(build_graph_complex(1, CLASSICAL3))
        assert rep.betti == {-1: 0, 0: 0, 1: 1}
        labels = {(row["weight"], row["degree"]): row["dim"]
                  for row in rep.topweight}
        assert labels == {(6, 3): 1, (6, 4): 0, (6, 5): 0}

    def test_classical_four_markings(self):
        rep = homology(build_graph_complex(1, CLASSICAL4))
        assert rep.betti[2] == 3
        assert all(v == 0 for k, v in rep.betti.items() if k != 2)

    def test_classical_two_markings(self):
        rep = homology(build_graph_complex(1, CLASSICAL2))
        assert all(v == 0 for v in rep.betti.values())

    def test_sign_convention_does_not_change_betti(self):
        plain = build_graph_complex(1, CLASSICAL3)
        negated = tuple(
            RationalMatrix(m.rows, m.cols,
                           [{i: -v for i, v in col.items()}
                            for col in m.columns])
            for m in plain.boundaries)
        assert negated != plain.boundaries
        # the constructor re-checks that the negated boundaries square to zero
        flipped = ChainComplex(plain.kind, plain.g, plain.weights,
                               plain.degrees, plain.bases, negated)
        assert homology(flipped).betti == homology(plain).betti

    def test_truncated_cache_file_is_not_a_silent_answer(self, tmp_path,
                                                         monkeypatch):
        # Cutting the degree-1 cache file of (1,4) to 3 of its 53 lines used
        # to drop every boundary term into the missing classes and report
        # b_0 = 10, b_2 = 21 instead of b_2 = 3. The header no longer matches,
        # so the file is recomputed.
        monkeypatch.setenv("TROPGC_CACHE", str(tmp_path))
        assert homology(build_graph_complex(1, CLASSICAL4)).betti[2] == 3
        [path] = tmp_path.glob("g1_n4_m3_pure_*.txt")
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) == 1 + 53
        path.write_text("".join(lines[:3]))
        with pytest.warns(UserWarning, match="ignoring cache file"):
            assert homology(build_graph_complex(1, CLASSICAL4)).betti[2] == 3
        assert path.read_text().splitlines(keepends=True) == lines

    @pytest.mark.parametrize("damage", ["top-degree-truncated",
                                        "corrupted-line", "headerless",
                                        "non-canonical-line",
                                        "undecodable-line", "misplaced"])
    def test_damaged_cache_file_is_recomputed(self, tmp_path, monkeypatch,
                                              damage):
        # The top degree is the FOUND case: no contraction lands there, so a
        # short file used to print b_1 = 18, b_2 = 0 without any error.
        monkeypatch.setenv("TROPGC_CACHE", str(tmp_path))
        assert homology(build_graph_complex(1, CLASSICAL4)).betti[2] == 3
        [path] = tmp_path.glob("g1_n4_m4_pure_*.txt")
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) == 1 + 39
        if damage == "top-degree-truncated":
            damaged = lines[:3]
        elif damage == "corrupted-line":
            # a canonical encoding of the wrong class: only the checksum
            # sees it
            damaged = lines[:5] + [lines[6]] + lines[6:]
        elif damage == "headerless":
            damaged = lines[1:]
        elif damage == "misplaced":
            # The file of another chamber, header and all, copied over this
            # one: it used to give b_1 = 3, b_2 = 2 without any error.
            lower = WeightDatum(1, (1, 1, Fraction(1, 10), Fraction(1, 10)))
            enumerate_stable_graphs(1, lower, 4, pure_only=True)
            [other] = set(tmp_path.glob("g1_n4_m4_pure_*.txt")) - {path}
            damaged = other.read_text().splitlines(keepends=True)
            assert damaged != lines
        else:
            # a line that is not a canonical encoding under a header
            # recomputed to match: the checksum passes and decoding fails
            body = lines[1:]
            if damage == "undecodable-line":
                body[4] = "not a graph\n"
            else:
                graph = decode_graph(body[4])
                body[4] = encode_graph(MarkedGraph(
                    graph.weights, graph.edges[::-1], graph.legs)) + "\n"
                assert body[4] != lines[5]
            data = "".join(body).encode()
            header = enumeration._cache_header(
                str(path), data, hashlib.sha256(data).hexdigest())
            damaged = [header.decode() + "\n"] + body
        path.write_text("".join(damaged))
        with pytest.warns(UserWarning, match="ignoring cache file"):
            rep = homology(build_graph_complex(1, CLASSICAL4))
        assert rep.betti == {-1: 0, 0: 0, 1: 0, 2: 3}
        assert path.read_text().splitlines(keepends=True) == lines

    def test_missing_contraction_target_is_an_error(self, monkeypatch):
        def dropping_one(g, a, k, kind):
            basis = generator_basis(g, a, k, kind)
            return basis[1:] if k == 0 else basis

        monkeypatch.setattr(complexes, "generator_basis", dropping_one)
        with pytest.raises(AssertionError, match="missing from the basis"):
            build_graph_complex(1, CLASSICAL4)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_genus_one_closed_form(self, n):
        # Chan-Galatius-Payne: at classical weights the genus-1 graph complex
        # has homology only in degree n - 2, of dimension (n - 1)!/2.
        a = WeightDatum(1, (Fraction(1),) * n)
        cx = build_graph_complex(1, a)
        assert homology(cx).betti == {
            k: factorial(n - 1) // 2 if k == n - 2 else 0 for k in cx.degrees}

    def test_genus_two_four_markings(self):
        # Class counts and Betti numbers of classical (2,4), as computed by
        # the former enumerator over all edge multisets and leg placements.
        a = WeightDatum(2, (Fraction(1),) * 4)
        counts = [len(enumerate_stable_graphs(2, a, m, pure_only=True).classes)
                  for m in range(2, 8)]
        assert counts == [1, 42, 327, 932, 1109, 465]
        cx = build_graph_complex(2, a)
        assert homology(cx).betti == {k: {2: 1, 3: 3}.get(k, 0)
                                      for k in cx.degrees}

    @pytest.mark.parametrize("g,n,dims,betti", [
        (3, 1, {-1: 3, 0: 6, 1: 2}, {0: 1}),
        (3, 2, {-1: 8, 0: 32, 1: 41, 2: 17}, {}),
        (4, 1, {-2: 1, -1: 12, 0: 30, 1: 30, 2: 11}, {}),
        (2, 3, {-1: 4, 0: 23, 1: 43, 2: 24}, {}),
        (2, 4, {-1: 8, 0: 91, 1: 324, 2: 446, 3: 207}, {2: 1, 3: 3}),
    ])
    def test_frontier_values(self, g, n, dims, betti):
        """Dimensions and Betti numbers of classical (g, n) as computed by
        this program (about 0.05 s, 0.4 s, 3 s, 0.2 s and 2.5 s cold), not
        taken from the literature. At genus 2 and 3 they are checked by a
        second route (Chan-Galatius-Payne): the reduced homology of the
        cellular complex, and of its A part, equals the graph-complex
        homology shifted by 2g - 1, and the B part is acyclic."""
        a = WeightDatum(g, (Fraction(1),) * n)
        cx = build_graph_complex(g, a)
        rep = homology(cx)
        assert rep.dims == {k: dims.get(k, 0) for k in cx.degrees}
        assert rep.betti == {k: betti.get(k, 0) for k in cx.degrees}
        if g < 4:
            check_cellular_route(g, a, rep.betti)

    @pytest.mark.parametrize("heavy,betti", [(0, {1: 6, 3: 3}), (1, {3: 3})])
    def test_light_genus_two_four_markings(self, heavy, betti):
        """(2,4) with 0 or 1 heavy markings (make_heavy_light), each chamber
        generated from its own stable parents: Betti numbers computed by
        this program, checked by the cellular route."""
        a = make_heavy_light(2, 4, heavy)
        cx = build_graph_complex(2, a)
        rep = homology(cx)
        assert rep.betti == {k: betti.get(k, 0) for k in cx.degrees}
        check_cellular_route(2, a, rep.betti)

    @pytest.mark.parametrize("g,a", [
        (1, CLASSICAL2), (1, CLASSICAL3), (1, MINIMAL3), (1, NEAR_F3),
        (0, WeightDatum(0, (Fraction(1),) * 4)),
    ])
    def test_betti_match_oracle(self, g, a):
        rep = homology(build_graph_complex(g, a))
        assert rep.betti == graph_betti(g, a.entries)

    def test_moduli_label(self):
        assert moduli_label(1, CLASSICAL3) == "M_{1,3}"
        assert "A=(1/3,1/3,33/100)" in moduli_label(1, MINIMAL3)


class TestCellular:
    def test_two_markings_contractible(self):
        rep = homology(build_cellular_complex(1, CLASSICAL2))
        assert all(v == 0 for v in rep.betti.values())

    def test_three_markings_sphere(self):
        rep = homology(build_cellular_complex(1, CLASSICAL3))
        assert rep.betti == {-1: 0, 0: 0, 1: 0, 2: 1}

    def test_minimal_chamber_folded_triangle(self):
        # Only L and the triangle H survive; the banana faces of H are zero
        # generators but still contract onto L, so the space is connected
        # and the triangle closes up into a 2-cycle.
        rep = homology(build_cellular_complex(1, MINIMAL3))
        assert rep.dims == {-1: 1, 0: 1, 1: 0, 2: 1}
        assert rep.betti == {-1: 0, 0: 0, 1: 0, 2: 1}

    def test_degree_shift_matches_graph_complex(self):
        graph = homology(build_graph_complex(1, CLASSICAL3)).betti
        cell = homology(build_cellular_complex(1, CLASSICAL3)).betti
        for k, v in graph.items():
            assert cell[k + 1] == v


class TestSplitAB:
    def test_b_part_acyclic_classical(self):
        cell = build_cellular_complex(1, CLASSICAL3)
        a_part, b_part = split_AB(cell)
        assert all(v == 0 for v in homology(b_part).betti.values())
        assert homology(a_part).betti == homology(cell).betti

    def test_a_part_generators_concentrated(self):
        a_part, _ = split_AB(build_cellular_complex(1, CLASSICAL3))
        assert [a_part.dim(k) for k in a_part.degrees] == [0, 0, 0, 1]
        assert homology(a_part).betti[2] == 1

    def test_both_parts_acyclic_two_markings(self):
        a_part, b_part = split_AB(build_cellular_complex(1, CLASSICAL2))
        assert all(v == 0 for v in homology(a_part).betti.values())
        assert all(v == 0 for v in homology(b_part).betti.values())

    def test_dims_add_up(self):
        cell = build_cellular_complex(1, CLASSICAL3)
        a_part, b_part = split_AB(cell)
        for k in cell.degrees:
            assert a_part.dim(k) + b_part.dim(k) == cell.dim(k)

    def test_split_that_is_not_boundary_closed_raises(self):
        # one A generator (pure, loopless) in degree 0 and one B generator
        # (with a loop) in degree 1 whose boundary hits it: neither part
        # keeps that entry
        a_gen, _ = canonicalize(MarkedGraph((0, 0), ((0, 1), (0, 1)), (0, 1)))
        b_gen, _ = canonicalize(MarkedGraph((0, 0), ((0, 1), (1, 1)), (0, 0)))
        assert is_pure(a_gen.graph) and not has_loops(a_gen.graph)
        assert has_loops(b_gen.graph)
        c = ChainComplex(CELLULAR, 1, CLASSICAL2, (0, 1),
                         ((a_gen,), (b_gen,)),
                         (RationalMatrix(0, 1),
                          RationalMatrix(1, 1, [{0: 1}])))
        with pytest.raises(AssertionError, match="not boundary-closed"):
            split_AB(c)

    def test_only_cellular_splits(self):
        with pytest.raises(DomainError):
            split_AB(build_graph_complex(1, CLASSICAL3))


class TestConsistencyChecks:
    """A hand-built complex whose boundaries do not fit its bases, or do
    not square to zero, is refused when it is built."""

    @pytest.mark.parametrize("degrees,boundaries,message", [
        ((0,), (RationalMatrix(0, 2),), "boundary column count mismatch"),
        ((0, 1), (RationalMatrix(0, 1), RationalMatrix(2, 1)),
         "boundary row count mismatch"),
        ((0, 1, 2), (RationalMatrix(0, 1), RationalMatrix(1, 1, [{0: 1}]),
                     RationalMatrix(1, 1, [{0: 1}])),
         "boundary squared is nonzero from degree 2"),
    ])
    def test_bad_boundary_is_refused(self, degrees, boundaries, message):
        cg, _ = canonicalize(MarkedGraph((0, 0), ((0, 1), (0, 1)), (0, 1)))
        with pytest.raises(AssertionError) as info:
            ChainComplex(CELLULAR, 1, CLASSICAL2, degrees,
                         ((cg,),) * len(degrees), boundaries)
        assert str(info.value) == message


def classical(g: int, n: int) -> WeightDatum:
    return WeightDatum(g, (Fraction(1),) * n)


CLEARING_CASES = {
    "graph-1-3": lambda: build_graph_complex(1, CLASSICAL3),
    "graph-1-4": lambda: build_graph_complex(1, CLASSICAL4),
    "graph-1-5": lambda: build_graph_complex(1, classical(1, 5)),
    "graph-near-f3": lambda: build_graph_complex(1, NEAR_F3),
    "graph-0-5": lambda: build_graph_complex(0, classical(0, 5)),
    "graph-2-3": lambda: build_graph_complex(2, classical(2, 3)),
    "graph-3-2": lambda: build_graph_complex(3, classical(3, 2)),
    "relative-1-3": lambda: build_relative_complex(1, CLASSICAL3,
                                                   make_floor(1, 3, 3)),
    "cellular-1-4": lambda: build_cellular_complex(1, CLASSICAL4),
    "cellular-2-3": lambda: build_cellular_complex(2, classical(2, 3)),
}


class TestClearing:
    @pytest.mark.parametrize("case", sorted(CLEARING_CASES))
    def test_cleared_pivots_equal_full_reduction(self, case, monkeypatch):
        c = CLEARING_CASES[case]()
        orders = {}

        def recording(m, order=None, row_key=None):
            orders[id(m)] = list(order)
            return column_pivots(m, order, row_key)

        monkeypatch.setattr(complexes, "column_pivots", recording)
        cleared_pivots = dict(boundary_pivots(c))
        monkeypatch.undo()
        cleared = set()
        for k in reversed(c.degrees):
            d = c.boundary(k)
            full = {j: low for j, (low, _) in column_pivots(d).items()}
            assert cleared_pivots[k] == full, k
            # the columns cleared by the degree above are never reduced,
            # and none of them is a pivot column of the full reduction
            assert sorted(orders[id(d)]) == sorted(set(range(d.cols))
                                                   - cleared)
            assert not cleared & set(full)
            cleared = set(full.values())
        assert homology(c).betti == {
            k: c.dim(k) - len(cleared_pivots[k])
            - len(cleared_pivots.get(k + 1, ())) for k in c.degrees}


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _chain_digests(c, levels=None):
    """SHA-256 of every boundary's sorted entries, and of every
    boundary_pivots {column: pivot row}, degree by degree."""
    return (_digest([sorted(b.entries().items()) for b in c.boundaries]),
            _digest([(k, sorted(lows.items()))
                     for k, lows in boundary_pivots(c, levels)]))


def warm_load(tmp_path, monkeypatch, build):
    """build() on a disk cache in tmp_path that build() filled, run again
    with no body in memory and an empty canonical memo, as in a fresh
    process: every cache body is decoded from its file."""
    monkeypatch.setenv("TROPGC_CACHE", str(tmp_path))
    monkeypatch.setattr(enumeration, "_decoded", {})
    build()
    monkeypatch.setattr(enumeration, "_decoded", {})
    monkeypatch.setattr(graphs, "_canon_cache", {})
    result = build()
    bodies = {(file_key(path),
               hashlib.sha256(path.read_bytes().partition(b"\n")[2])
               .hexdigest()) for path in tmp_path.glob("*.txt")}
    assert set(enumeration._decoded) == bodies
    return result


def heavy_light_0_7_4():
    """The complex of the rank-warm-g0n7-hl4 benchmark workload."""
    return build_graph_complex(0, make_heavy_light(0, 7, 4))


HEAVY_LIGHT_0_7_4_DIGESTS = (
    "0b3bbba61fb04fc3446981ef8aa59f821505479c89a1a49933c7d266197e6d01",
    "9e4c1ddb4ad4d28ae4078c25fbe3c3035d3f24053367050cdfa090668c29b65f")


def filtered_1_5_pairs_digests(f):
    """_chain_digests of a filtered complex and the digest of its pairs."""
    pairs = sorted((k, sorted(v)) for k, v in f.pairs.items())
    return (*_chain_digests(f.base, f.levels), _digest(pairs))


FILTERED_1_5_PAIRS_DIGESTS = (
    "45bd8048fec45bdad1f0c9345223abb111fa6badff0480d7e001c7f78ba2c4eb",
    "743a0d8d0fefe91eb96957fd1b7361df4c5f8f2da84c15df2f99fc1c5ca30261",
    "557147863447a1acafee4cad54038e1690abe15311852e8639518b8f484a0fb5")


class TestPinnedBoundaries:
    """Boundary signs and pivots, pinned as digests of the output of an
    earlier version: any changed sign, entry or pivot row fails. The
    benchmark complexes are also pinned from a warm load."""

    def test_heavy_light_0_7_4(self):
        assert _chain_digests(heavy_light_0_7_4()) == \
            HEAVY_LIGHT_0_7_4_DIGESTS

    def test_heavy_light_0_7_4_warm(self, tmp_path, monkeypatch):
        c = warm_load(tmp_path, monkeypatch, heavy_light_0_7_4)
        assert _chain_digests(c) == HEAVY_LIGHT_0_7_4_DIGESTS

    def test_classical_1_4(self):
        c = build_graph_complex(1, CLASSICAL4)
        assert _chain_digests(c) == (
            "20fa4edc5e775c2d6516858d7d4abb925eb662dc5ac644d8b018b0a3b430c7a8",
            "5cde9227e89364fb2deb4e29efe2567cb7178f548353a5b5f725645a6f42b089")

    def test_filtered_1_5_pairs(self):
        assert filtered_1_5_pairs_digests(spectral_warm_chain()) == \
            FILTERED_1_5_PAIRS_DIGESTS

    def test_filtered_1_5_pairs_warm(self, tmp_path, monkeypatch):
        f = warm_load(tmp_path, monkeypatch, spectral_warm_chain)
        assert filtered_1_5_pairs_digests(f) == FILTERED_1_5_PAIRS_DIGESTS

    def test_filtered_1_5_steps(self):
        f = spectral_warm_chain()
        assert [_chain_digests(f.step(p))
                for p in range(1, f.num_levels + 1)] == [
            ("ca660a587f9d9180ee5733f49d06f38cea09b5da765d5fd019633c0de7fe62d6",
             "8339ccb0de3ba4d1ce85d92b81056c3ef1d5217267fcec1edd4bb8e62a8ee124"),
            ("3482831bbf3671456d84e8d6717f3cf0eb0522a5a8c64c2ed01d75042513588d",
             "d878b1e3b7b35bbc79fe3e7c89fd09f5ed27fb4665b88010d909af29ce2beb95"),
            ("b7b07aa1856caf4333852c9c83ba97a3e84d8ad6159fb6f95af531d56157ad83",
             "7a27db2db5e42b5c250f62ef55b18fca43a314049f880f5ee28758324a59d5a8")]

    def test_cellular_1_4_split(self):
        a_part, b_part = split_AB(build_cellular_complex(1, CLASSICAL4))
        assert _chain_digests(a_part) == (
            "329da78a83b68132fd76845b624c9ee8591c5bdf0d2356e287a537dfc6338426",
            "a0cfbea7e29a0a6f3409acfb227f38126b97b240517abad6c35ef199da334513")
        assert _chain_digests(b_part) == (
            "ca2c2ee71d355725a254e1ff53d0b1bc6f63b55c53a8082a3fcc05ab95db6ee3",
            "1dc35e3d00dad31b524f5fb12d409ffaf3a1332163cc4937b74fefce0bc79224")


def spectral_warm_chain():
    """The chain shape of the spectral-warm-g1n5 benchmark workload."""
    return filtered_from_raw(1, [make_minimal(1, 5), make_floor(1, 5, 4),
                                 make_heavy_light(1, 5, 2)])


ORACLE_COMPLEXES = {
    "graph-1-4": lambda: build_graph_complex(1, CLASSICAL4),
    "graph-2-3": lambda: build_graph_complex(2, classical(2, 3)),
    "graph-3-2": lambda: build_graph_complex(3, classical(3, 2)),
    "cellular-1-3": lambda: build_cellular_complex(1, CLASSICAL3),
}


def _colour_classes(parts):
    """The ordered colour classes of parts, as _canonicalize_parts groups
    their vertices: by (weight, edge degree, markings), colours ascending."""
    groups = {}
    for v, color in enumerate(graphs._vertex_colors(*parts)):
        groups.setdefault(color, []).append(v)
    return tuple(tuple(groups[color]) for color in sorted(groups))


def _recording_parts(monkeypatch):
    """Patch complexes._canonicalize_parts to append (parts, head, missed,
    result) to the list returned, missed telling whether the parts were
    not memoized."""
    calls = []
    real = complexes._canonicalize_parts

    def recording(*parts, head):
        missed = parts not in graphs._canon_cache
        result = real(*parts, head=head)
        calls.append((parts, head, missed, result))
        return result

    monkeypatch.setattr(complexes, "_canonicalize_parts", recording)
    return calls


def _counting_relabelings(monkeypatch):
    """Patch graphs._minimal_relabeling to append its (edges, classes) to
    the list returned."""
    calls = []
    real = graphs._minimal_relabeling

    def counting(edges, classes):
        calls.append((edges, classes))
        return real(edges, classes)

    monkeypatch.setattr(graphs, "_minimal_relabeling", counting)
    return calls


class TestHeadRelabelings:
    """Contractions are canonicalized on the record of their contracted
    head, which derives each relabeling once per (head, ordered colour
    classes); cache lines likewise on the record of their head."""

    @pytest.mark.parametrize("name", sorted(ORACLE_COMPLEXES))
    def test_record_path_matches_reference(self, name, monkeypatch):
        """Every contraction, with an empty memo so that each one is first
        met on the record path, has the reference form, automorphisms and
        the parity of its edge map as its sign; each boundary column is the
        signed sum of exactly the targets without an odd edge
        automorphism."""
        build = ORACLE_COMPLEXES[name]
        build()  # the bases, held in memory from here on
        monkeypatch.setattr(graphs, "_canon_cache", {})
        calls = _recording_parts(monkeypatch)
        c = build()
        assert calls and any(missed for _, _, missed, _ in calls)
        for parts, head, _, (cg, sign) in calls:
            assert (head.weights, head.edges) == parts[:2]
            form, odd, generators, edge_map = reference_canonicalize(*parts)
            assert (cg.graph, cg.has_odd_edge_automorphism,
                    cg.automorphism_generators, sign) == \
                (form, odd, generators, _parity(edge_map))
        contract_loops = c.kind == CELLULAR
        for i in range(len(c.degrees)):
            row_of = {cg.graph: r for r, cg in
                      enumerate(c.bases[i - 1] if i else ())}
            for j, cg in enumerate(c.bases[i]):
                column = {}
                for e, (u, v) in enumerate(cg.graph.edges):
                    if u == v and not contract_loops:
                        continue
                    form, odd, _, edge_map = reference_canonicalize(
                        *contract_edge(cg.graph, e))
                    if not odd:
                        row = row_of[form]
                        column[row] = column.get(row, 0) + \
                            _parity(edge_map) * (1 if e % 2 else -1)
                assert c.boundaries[i].columns[j] == \
                    {r: x for r, x in column.items() if x}

    def test_warm_load_relabels_once_per_head_and_classes(self, tmp_path,
                                                          monkeypatch):
        """A warm load of classical pure (2,4), whose bodies hold 1,239
        lines with tied colours over 309 (head, classes) pairs, runs the
        brute force once per pair of each body, and every class it loads is
        its own fresh-memo canonical form."""
        a = classical(2, 4)
        monkeypatch.setenv("TROPGC_CACHE", str(tmp_path))
        monkeypatch.setattr(enumeration, "_decoded", {})
        ms = range(2, max_edges(2, 4) + 1)
        cold = [enumerate_stable_graphs(2, a, m, True).classes for m in ms]
        monkeypatch.setattr(enumeration, "_decoded", {})
        monkeypatch.setattr(graphs, "_canon_cache", {})
        calls = _counting_relabelings(monkeypatch)
        warm = [enumerate_stable_graphs(2, a, m, True).classes for m in ms]
        assert warm == cold
        tied = pairs = 0
        for body in warm:
            lines = [(cg.graph[:2], classes) for cg in body
                     for classes in [_colour_classes(cg.graph)]
                     if len(classes) < len(cg.graph.weights)]
            tied += len(lines)
            pairs += len(set(lines))
        assert (tied, pairs) == (1239, 309)
        assert len(calls) == pairs
        for body in warm:
            for cg in body:
                with mock.patch.dict(graphs._canon_cache, clear=True):
                    assert canonicalize(cg.graph) == (cg, 1)

    def test_boundary_relabels_once_per_head_and_classes(self, monkeypatch):
        """One boundary of the classical pure (2,4) graph complex, built
        with an empty memo, runs the brute force once per (contracted head,
        ordered classes) among the contractions that miss the memo with
        tied colours, and no more; its column equals the one built before,
        and each target its fresh-memo canonical form."""
        c = build_graph_complex(2, classical(2, 4))
        i = max(range(len(c.degrees)), key=lambda i: len(c.bases[i]))
        row_of = {cg.encoding: r for r, cg in enumerate(c.bases[i - 1])}
        monkeypatch.setattr(graphs, "_canon_cache", {})
        calls = _recording_parts(monkeypatch)
        relabelings = _counting_relabelings(monkeypatch)
        columns = complexes._boundary_columns(c.bases[i], row_of, False)
        assert tuple(columns) == c.boundaries[i].columns
        tied_misses = [(parts[:2], classes) for parts, _, missed, _ in calls
                       for classes in [_colour_classes(parts)]
                       if missed and len(classes) < len(parts[0])]
        expected = set(tied_misses)
        assert len(relabelings) == len(expected) < len(tied_misses)
        assert sorted(relabelings) == sorted((head[1], classes)
                                             for head, classes in expected)
        for parts, _, _, result in calls:
            with mock.patch.dict(graphs._canon_cache, clear=True):
                assert canonicalize(MarkedGraph(*parts)) == result


class TestColumnPath:
    def test_build_check_and_reduce_read_no_entries(self, monkeypatch):
        # entries() is a (row, col) view for readers outside the pipeline;
        # assembly, slicing, the checks and the reductions walk columns
        def refuse(self):
            raise AssertionError("entries() read on the column path")

        monkeypatch.setattr(RationalMatrix, "entries", refuse)
        f = spectral_warm_chain()
        assert f.pairs and homology(f.base).betti
        assert homology(f.step(2)).betti
        a_part, b_part = split_AB(build_cellular_complex(1, CLASSICAL4))
        assert homology(b_part).betti


class TestRelative:
    def test_floor_three_relative_vanishes(self):
        rel = build_relative_complex(1, CLASSICAL3, make_floor(1, 3, 3))
        rep = homology(rel)
        assert all(v == 0 for v in rep.betti.values())

    def test_equal_weights_zero_complex(self):
        rel = build_relative_complex(1, CLASSICAL3, CLASSICAL3)
        assert all(rel.dim(k) == 0 for k in rel.degrees)
        assert all(v == 0 for v in homology(rel).betti.values())

    def test_adjacent_chambers_single_class(self):
        rel = build_relative_complex(1, NEAR_F3, MINIMAL3)
        assert [rel.dim(k) for k in (-1, 0, 1)] == [0, 1, 0]
        assert homology(rel).betti == {-1: 0, 0: 1, 1: 0}

    def test_rejects_unnested_weights(self):
        with pytest.raises(DomainError):
            build_relative_complex(1, MINIMAL3, CLASSICAL3)


entry = st.fractions(min_value=Fraction(1, 10), max_value=1,
                     max_denominator=10)


class TestRandomizedChambers:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(entry, min_size=3, max_size=3))
    def test_boundaries_square_to_zero(self, entries):
        a = WeightDatum(1, tuple(entries))
        for cx in (build_graph_complex(1, a), build_cellular_complex(1, a)):
            for k in cx.degrees:
                assert cx.boundary(k).matmul(cx.boundary(k + 1)).is_zero()

    @settings(max_examples=15, deadline=None)
    @given(st.lists(entry, min_size=3, max_size=3))
    def test_split_is_blockwise(self, entries):
        a = WeightDatum(1, tuple(entries))
        cell = build_cellular_complex(1, a)
        a_part, b_part = split_AB(cell)
        for k in cell.degrees:
            assert a_part.dim(k) + b_part.dim(k) == cell.dim(k)
            assert homology(a_part).betti[k] + homology(b_part).betti[k] == \
                homology(cell).betti[k]
