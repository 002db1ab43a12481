"""Stable graph enumeration, generator bases, and filtration levels."""

import os
from fractions import Fraction
from functools import lru_cache

import pytest

from tropgc import DomainError, WeightDatum, enumerate_stable_graphs, max_edges
from tropgc import enumeration
from tropgc.enumeration import (
    CELLULAR,
    GRAPH_COMPLEX,
    cache_dir,
    degree_range,
    filtration_levels,
    generator_basis,
)
from tropgc.graphs import MarkedGraph, canonicalize, has_loops, is_stable

from .oracles import canonical_key, enumerate_classes

EPS = Fraction(1, 100)
CLASSICAL3 = WeightDatum(1, (Fraction(1),) * 3)
NEAR_F3 = WeightDatum(1, (Fraction(4, 9) - EPS,) * 3)
FIVE_CHAMBER = (
    WeightDatum(1, (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3) - EPS)),
    NEAR_F3,
    WeightDatum(1, (Fraction(14, 27) - EPS, Fraction(12, 27),
                    Fraction(14, 27))),
    WeightDatum(1, (Fraction(99, 100), Fraction(12, 27), Fraction(14, 27))),
    CLASSICAL3,
)

# (g, n, m) cases checked against the oracle for all and for pure graphs;
# (3, 1) starts pure generation from a genus-3 rose and splits weight 3
UNCONTRACTION_CASES = (
    [(0, 5, m) for m in range(3)] + [(0, 6, m) for m in range(4)]
    + [(1, 4, m) for m in range(4)] + [(2, 2, m) for m in range(5)]
    + [(3, 1, m) for m in range(4)])

oracle_classes = lru_cache(maxsize=None)(enumerate_classes)

LOOP = MarkedGraph((0,), ((0, 0),), (0, 0, 0))
LOOP_BRIDGE = MarkedGraph((0, 0), ((0, 0), (0, 1)), (1, 1, 1))
TRIANGLE = MarkedGraph((0, 0, 0), ((0, 1), (0, 2), (1, 2)), (0, 1, 2))
# loop at 0, path 0-1-2; G_i carries the lone marking i on the path vertex
LOOP_TAIL_G1 = MarkedGraph((0, 0, 0), ((0, 0), (0, 1), (1, 2)), (1, 2, 2))
LOOP_TAIL_G2 = MarkedGraph((0, 0, 0), ((0, 0), (0, 1), (1, 2)), (2, 1, 2))
LOOP_TAIL_G3 = MarkedGraph((0, 0, 0), ((0, 0), (0, 1), (1, 2)), (2, 2, 1))


class TestEnumerate:
    def test_one_edge_classical(self):
        classes = enumerate_stable_graphs(1, CLASSICAL3, 1, pure_only=True)
        assert len(classes.classes) == 1
        assert classes.classes[0] == canonicalize(LOOP)[0]

    def test_two_edges_classical(self):
        classes = enumerate_stable_graphs(1, CLASSICAL3, 2, pure_only=True)
        assert len(classes.classes) == 7
        loops = [c for c in classes.classes if has_loops(c.graph)]
        bananas = [c for c in classes.classes if not has_loops(c.graph)]
        assert len(loops) == 4 and len(bananas) == 3

    def test_two_edges_small_weights(self):
        classes = enumerate_stable_graphs(1, NEAR_F3, 2, pure_only=True)
        assert len(classes.classes) == 4
        loops = [c for c in classes.classes if has_loops(c.graph)]
        assert len(loops) == 1
        assert loops[0] == canonicalize(LOOP_BRIDGE)[0]

    def test_entries_satisfy_module_contract(self):
        classes = enumerate_stable_graphs(1, CLASSICAL3, 2).classes
        assert len(set(classes)) == len(classes)
        for cg in classes:
            assert cg.graph.num_edges == 2
            assert len(cg.graph.legs) == 3
            assert is_stable(cg.graph, 1, CLASSICAL3)

    def test_pure_only_filters_weights(self):
        for cg in enumerate_stable_graphs(1, CLASSICAL3, 1,
                                          pure_only=True).classes:
            assert all(w == 0 for w in cg.graph.weights)

    def test_genus_mismatch(self):
        with pytest.raises(DomainError):
            enumerate_stable_graphs(2, CLASSICAL3, 1)

    def test_edge_count_out_of_range(self):
        assert max_edges(1, 3) == 3
        with pytest.raises(DomainError):
            enumerate_stable_graphs(1, CLASSICAL3, 4)


class TestOracleAgreement:
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_classical_three_markings(self, m):
        got = {canonical_key(cg.graph.weights, cg.graph.edges, cg.graph.legs)
               for cg in enumerate_stable_graphs(1, CLASSICAL3, m).classes}
        want = set(enumerate_classes(1, CLASSICAL3.entries, m))
        assert got == want

    @pytest.mark.parametrize("pure", [True, False], ids=["pure", "all"])
    @pytest.mark.parametrize("g,n,m", UNCONTRACTION_CASES)
    def test_uncontraction_matches_oracle(self, g, n, m, pure):
        a = WeightDatum(g, (Fraction(1),) * n)
        got = {canonical_key(cg.graph.weights, cg.graph.edges, cg.graph.legs)
               for cg in enumerate_stable_graphs(g, a, m, pure).classes}
        want = {key for key in oracle_classes(g, a.entries, m)
                if not (pure and any(key[0]))}
        assert got == want

    def test_non_classical_datum(self):
        got = {canonical_key(cg.graph.weights, cg.graph.edges, cg.graph.legs)
               for cg in enumerate_stable_graphs(1, NEAR_F3, 2).classes}
        want = set(enumerate_classes(1, NEAR_F3.entries, 2))
        assert got == want


class TestGeneratorBasis:
    def test_graph_complex_dimensions(self):
        dims = [len(generator_basis(1, CLASSICAL3, k)) for k in (-1, 0, 1)]
        assert dims == [1, 4, 4]

    def test_small_weights_degree_zero(self):
        assert len(generator_basis(1, NEAR_F3, 0)) == 1

    def test_degree_out_of_range(self):
        with pytest.raises(DomainError):
            generator_basis(1, CLASSICAL3, 2)

    def test_cellular_range_shifted(self):
        r_graph = degree_range(1, 3, GRAPH_COMPLEX)
        r_cell = degree_range(1, 3, CELLULAR)
        assert list(r_graph) == [-1, 0, 1]
        assert list(r_cell) == [-1, 0, 1, 2]


class TestFiltrationLevels:
    def test_degree_one_levels(self):
        levels = filtration_levels(1, FIVE_CHAMBER, 1)
        by_graph = {canonicalize(TRIANGLE)[0]: 1,
                    canonicalize(LOOP_TAIL_G2)[0]: 3,
                    canonicalize(LOOP_TAIL_G3)[0]: 4,
                    canonicalize(LOOP_TAIL_G1)[0]: 5}
        for cg, want in by_graph.items():
            assert levels[cg] == want
        assert sorted(levels.values()) == [1, 3, 4, 5]

    def test_degree_minus_one_level(self):
        levels = filtration_levels(1, FIVE_CHAMBER, -1)
        assert levels == {canonicalize(LOOP)[0]: 1}

    def test_degree_zero_levels(self):
        levels = filtration_levels(1, FIVE_CHAMBER, 0)
        assert levels[canonicalize(LOOP_BRIDGE)[0]] == 2
        assert sorted(levels.values()) == [2, 3, 4, 5]


class TestCache:
    def test_cache_round_trip(self):
        first = enumerate_stable_graphs(1, CLASSICAL3, 2)
        assert os.listdir(cache_dir())
        second = enumerate_stable_graphs(1, CLASSICAL3, 2)
        assert first.classes == second.classes

    def test_checked_file_is_decoded_once_per_content(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setenv("TROPGC_CACHE", str(tmp_path))
        monkeypatch.setattr(enumeration, "_decoded", {})
        decoded = []
        real_decode = enumeration.decode_graph

        def counting_decode(text):
            decoded.append(text)
            return real_decode(text)

        monkeypatch.setattr(enumeration, "decode_graph", counting_decode)
        computed = enumerate_stable_graphs(1, CLASSICAL3, 3).classes
        [path] = tmp_path.glob("g1_n3_m3_all_*.txt")
        good = path.read_bytes()
        decoded.clear()
        # The body this process wrote is not decoded.
        assert enumerate_stable_graphs(1, CLASSICAL3, 3).classes == computed
        assert decoded == []

        # A body not in memory is decoded once, line by line.
        enumeration._decoded.clear()
        assert enumerate_stable_graphs(1, CLASSICAL3, 3).classes == computed
        assert len(decoded) == len(computed)

        # A damaged file fails the header check even though its classes are
        # in memory, and is recomputed and rewritten.
        lines = good.splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-1]))
        with pytest.warns(UserWarning, match="ignoring cache file"):
            assert enumerate_stable_graphs(1, CLASSICAL3, 3).classes == computed
        assert path.read_bytes() == good

        def no_decode(text):
            raise AssertionError(f"decoded again: {text}")

        monkeypatch.setattr(enumeration, "decode_graph", no_decode)
        assert enumerate_stable_graphs(1, CLASSICAL3, 3).classes == computed
