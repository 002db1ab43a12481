"""Stable graph enumeration, generator bases, and filtration levels."""

import hashlib
import os
import warnings
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from tropgc import (DomainError, DomainGapWarning, WeightDatum,
                    build_graph_complex, enumerate_stable_graphs, homology,
                    make_floor, make_heavy_light, max_edges, signature)
from tropgc import enumeration, graphs
from tropgc.enumeration import (
    CELLULAR,
    GRAPH,
    cache_dir,
    degree_range,
    filtration_levels,
    generator_basis,
)
from tropgc.graphs import MarkedGraph, canonicalize, has_loops, is_stable

from .oracles import (canonical_key, decode_graph, encode_graph,
                      enumerate_classes, every_uncontraction,
                      new_edge_is_largest, reference_decode,
                      reference_is_stable)

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
            assert len(cg.graph.edges) == 2
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


# (g, n) of the random data whose direct lists are checked against the
# filtered classical list; (2, 5) is left out for time (its classical
# all-graph lists take about 10 s cold)
FILTER_CASES = [(g, n) for g in range(3) for n in range(1, 6)
                if 2 * g - 2 + n > 0 and (g, n) != (2, 5)]


class TestDirectGeneration:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_equals_filtered_classical_list(self, data):
        """Each datum's classes, generated from its own stable parents, are
        the classical classes that reference_is_stable keeps, with the same
        encodings in the same order, at every edge count, pure and all."""
        g, n = data.draw(st.sampled_from(FILTER_CASES))
        ks = data.draw(st.lists(st.integers(1, 60), min_size=n, max_size=n))
        assume(60 * (2 * g - 2) + sum(ks) > 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DomainGapWarning)
            a = WeightDatum(g, tuple(Fraction(k, 60) for k in ks))
        classical = WeightDatum(g, (Fraction(1),) * n)
        for pure in (True, False):
            for m in range(max_edges(g, n) + 1):
                top = enumerate_stable_graphs(g, classical, m, pure).classes
                want = [cg.encoding for cg in top
                        if reference_is_stable(cg.graph, g, a)]
                got = [cg.encoding for cg in
                       enumerate_stable_graphs(g, a, m, pure).classes]
                assert got == want

    def test_light_chamber_writes_only_its_own_files(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv("TROPGC_CACHE", str(tmp_path))
        monkeypatch.setattr(enumeration, "_decoded", {})
        a = make_heavy_light(1, 5, 0)
        for m in range(max_edges(1, 5) + 1):
            enumerate_stable_graphs(1, a, m)
        own = enumeration.signature_hash(signature(a))
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [f"g1_n5_m{m}_all_{own}.txt"
                         for m in range(max_edges(1, 5) + 1)]


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
        r_graph = degree_range(1, 3, GRAPH)
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


# (g, n) cases generated cold with and without the canonical-parent test
PARENT_TEST_CASES = [(2, 3), (1, 5), (3, 1), (0, 7)]


def cold_generation(cache, monkeypatch, g, n, pure):
    """The classes at every edge count, generated in the empty cache
    directory cache, and the bytes of every file written there."""
    monkeypatch.setenv("TROPGC_CACHE", str(cache))
    monkeypatch.setattr(enumeration, "_decoded", {})
    a = WeightDatum(g, (Fraction(1),) * n)
    classes = tuple(enumerate_stable_graphs(g, a, m, pure).classes
                    for m in range(max_edges(g, n) + 1))
    return classes, {p.name: p.read_bytes() for p in cache.iterdir()}


def sorted_edge_invariants(weights, edges, legs):
    colors = graphs._vertex_colors(weights, edges, legs)
    return sorted(enumeration._edge_invariant(colors, u, v)
                  for u, v in edges)


@lru_cache(maxsize=None)
def parent_classes():
    """(class, classical datum) for every class of (1,4), (2,3) and (3,1),
    with weights, loops and parallel edges at the vertices they split."""
    out = []
    for g, n in ((1, 4), (2, 3), (3, 1)):
        a = WeightDatum(g, (Fraction(1),) * n)
        for m in range(max_edges(g, n)):
            out += [(cg, a) for cg in enumerate_stable_graphs(g, a, m).classes]
    return tuple(out)


@lru_cache(maxsize=None)
def generated_classes():
    """Every all-graph class of (1,4) and every pure class of (2,3)."""
    classes = []
    for g, n, pure in ((1, 4, False), (2, 3, True)):
        a = WeightDatum(g, (Fraction(1),) * n)
        for m in range(max_edges(g, n) + 1):
            classes += enumerate_stable_graphs(g, a, m, pure).classes
    return tuple(classes)


class TestCanonicalParents:
    @pytest.mark.parametrize("pure", [True, False], ids=["pure", "all"])
    @pytest.mark.parametrize("g,n", PARENT_TEST_CASES)
    def test_same_classes_and_cache_as_every_candidate(
            self, tmp_path, monkeypatch, g, n, pure):
        kept = cold_generation(tmp_path / "kept", monkeypatch, g, n, pure)
        monkeypatch.setattr(enumeration, "_uncontractions",
                            every_uncontraction)
        every = cold_generation(tmp_path / "every", monkeypatch, g, n, pure)
        assert kept == every

    def test_each_parent_keeps_one_child_per_largest_new_edge(self):
        """Per parent, the pruned uncontractions are some of the unpruned
        ones whose new edge is largest, and reach every (child, new edge)
        pair that those reach, up to isomorphism: the new edge is marked by
        subdividing it at a vertex of a weight no other vertex has. Largest
        is first tested from the parts alone (oracles.new_edge_is_largest),
        then with ties broken (enumeration._wins_refined_tie)."""
        def marked_forms(children):
            forms = set()
            for weights, edges, legs in children:
                mark = len(weights)
                (u, v), rest = edges[-1], edges[:-1]
                forms.add(canonicalize(MarkedGraph(
                    weights + (99,), rest + ((u, mark), (v, mark)),
                    legs))[0].graph)
            return forms

        with mock.patch.dict(graphs._canon_cache):
            for cg, a in parent_classes():
                sums, den = a.subset_sums
                pruned = list(enumeration._uncontractions(cg, sums, den))
                largest = [child for child
                           in every_uncontraction(cg, sums, den)
                           if new_edge_is_largest(*child)
                           and enumeration._wins_refined_tie(*child)]
                assert set(pruned) <= set(largest)
                assert marked_forms(pruned) == marked_forms(largest)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_edge_invariants_survive_relabeling(self, data):
        cg = data.draw(st.sampled_from(generated_classes()))
        weights, edges, legs = cg.graph.weights, cg.graph.edges, cg.graph.legs
        new = data.draw(st.permutations(range(len(weights))))
        relabeled = [0] * len(weights)
        for old, w in enumerate(weights):
            relabeled[new[old]] = w
        moved_edges = data.draw(st.permutations(
            [(new[u], new[v]) for u, v in edges]))
        assert sorted_edge_invariants(
            tuple(relabeled), tuple(moved_edges),
            tuple(new[x] for x in legs)) == \
            sorted_edge_invariants(weights, edges, legs)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_tie_break_survives_relabeling(self, data):
        """_wins_refined_tie gives one answer for every relabeling of a
        graph's vertices and of its other edges, the tested edge last."""
        cg = data.draw(st.sampled_from(
            [cg for cg in generated_classes() if cg.graph.edges]))
        weights, edges, legs = cg.graph.weights, cg.graph.edges, cg.graph.legs
        last = data.draw(st.integers(0, len(edges) - 1))
        edges = edges[:last] + edges[last + 1:] + edges[last:last + 1]
        new = data.draw(st.permutations(range(len(weights))))
        relabeled = [0] * len(weights)
        for old, w in enumerate(weights):
            relabeled[new[old]] = w
        moved = [tuple(sorted((new[u], new[v]))) for u, v in edges]
        moved[:-1] = data.draw(st.permutations(moved[:-1]))
        assert enumeration._wins_refined_tie(
            tuple(relabeled), tuple(moved), tuple(new[x] for x in legs)) == \
            enumeration._wins_refined_tie(weights, edges, legs)

    def test_cold_pure_genus_two_canonicalizes_under_half(self, tmp_path,
                                                          monkeypatch):
        """Cold pure (2,3): the unpruned uncontractions of the parents
        number 1,362; the pruned ones build the parts of 345, and 311 of
        those are canonicalized, under half of the unpruned count."""
        unpruned, built, canonicalized = [], [], []
        real_uncontractions = enumeration._uncontractions
        real_split = enumeration._split
        real_canonicalize = enumeration._canonicalize_parts

        def counted_uncontractions(cg, *stability):
            unpruned.extend(every_uncontraction(cg, *stability))
            return real_uncontractions(cg, *stability)

        def counted_split(*args):
            built.append(args)
            return real_split(*args)

        def counted_canonicalize(*parts):
            canonicalized.append(parts)
            return real_canonicalize(*parts)

        monkeypatch.setattr(enumeration, "_uncontractions",
                            counted_uncontractions)
        monkeypatch.setattr(enumeration, "_split", counted_split)
        monkeypatch.setattr(enumeration, "_canonicalize_parts",
                            counted_canonicalize)
        cold_generation(tmp_path, monkeypatch, 2, 3, True)
        assert (len(unpruned), len(built), len(canonicalized)) == \
            (1362, 345, 311)
        assert len(canonicalized) < len(unpruned) / 2

    @pytest.mark.parametrize("g,n", [(2, 3), (1, 4)])
    def test_cold_pure_canonicalizes_at_most_one_and_a_fifth_per_class(
            self, tmp_path, monkeypatch, g, n):
        canonicalized = []
        real_canonicalize = enumeration._canonicalize_parts

        def counted_canonicalize(*parts):
            canonicalized.append(parts)
            return real_canonicalize(*parts)

        monkeypatch.setattr(enumeration, "_canonicalize_parts",
                            counted_canonicalize)
        classes, _ = cold_generation(tmp_path, monkeypatch, g, n, True)
        assert len(canonicalized) <= 1.2 * sum(map(len, classes))


# SHA-256 of every pure class encoding of the classical datum, one per
# line, edge counts ascending, pinned from a generator that tried every
# subset of the items at the split vertex and had no tie break, so that a
# change in the classes, their order or their encodings fails.
PURE_CLASS_DIGESTS = {
    (2, 3): "51986f97fafa0ce56a8aea2c82ca9058268daf53b607d8caec98972e77aadfb9",
    (1, 5): "cd43efae9d70653ab5b9ed472c3408e01a96b3d7c5d79e8b8da6028a14e9f5d2",
    (3, 2): "0f7f6e9d46e73385d0e8a318258a9ef67a1f2b61baa2d09c8bd4cccde84050c5",
}


class TestPinnedClassLists:
    @pytest.mark.parametrize("g,n", sorted(PURE_CLASS_DIGESTS))
    def test_cold_pure_classes(self, tmp_path, monkeypatch, g, n):
        with mock.patch.dict(graphs._canon_cache, clear=True):
            classes, _ = cold_generation(tmp_path, monkeypatch, g, n, True)
            # each form is memoized under its own graph, no second key
            keys = {key: key for key in graphs._canon_cache}
            for level in classes:
                for cg in level:
                    assert keys[cg.graph] is cg.graph
                    assert cg.encoding == encode_graph(cg.graph)
        body = "".join(cg.encoding + "\n" for level in classes
                       for cg in level)
        assert hashlib.sha256(body.encode()).hexdigest() == \
            PURE_CLASS_DIGESTS[(g, n)]


# A line of the (1, CLASSICAL3, 3) cache file, and malformed stand-ins for
# it. Each one parses, or nearly does, but is not that class's canonical
# encoding byte for byte.
CACHE_LINE = "1;0,0,0;edges=(0-1,1-2,2-2);legs=(1@0,2@0,3@1)"
MALFORMED_LINES = {
    # vertices 0 and 1 swapped: the same class, not in canonical form
    "relabeled": "1;0,0,0;edges=(0-1,0-2,2-2);legs=(1@1,2@1,3@0)",
    "genus-prefix": "2;0,0,0;edges=(0-1,1-2,2-2);legs=(1@0,2@0,3@1)",
    "marking-order": "1;0,0,0;edges=(0-1,1-2,2-2);legs=(2@0,1@0,3@1)",
    "leading-zero": "1;0,0,0;edges=(0-1,1-2,2-2);legs=(01@0,2@0,3@1)",
    "plus-sign": "1;0,0,0;edges=(0-1,1-2,2-2);legs=(+1@0,2@0,3@1)",
    "space": "1;0,0,0;edges=(0-1,1-2,2-2);legs=( 1@0,2@0,3@1)",
    "negative-leg": "1;0,0,0;edges=(0-1,1-2,2-2);legs=(1@-1,2@0,3@1)",
    "vertex-out-of-range": "1;0,0,0;edges=(0-1,1-2,2-3);legs=(1@0,2@0,3@1)",
    "three-ended-edge": "1;0,0,0;edges=(0-1-2,1-2,2-2);legs=(1@0,2@0,3@1)",
    "empty-weights": "1;;edges=(0-1,1-2,2-2);legs=(1@0,2@0,3@1)",
    # int() reads "0_1" and "1\t" as 1, so only writing the parts back
    # rejects these
    "underscore": "1;0,0,0;edges=(0-1,1-2,2-2);legs=(1@0,2@0,3@0_1)",
    "tab": "1;0,0,0;edges=(0-1,1-2,2-2);legs=(1@0,2@0,3@1\t)",
    "trailing-comma": "1;0,0,0;edges=(0-1,1-2,2-2);legs=(1@0,2@0,3@1,)",
    # canonical text and vertex order, edges out of order: only the
    # in-place order test rejects it
    "edges-swapped": "1;0,0,0;edges=(1-2,0-1,2-2);legs=(1@0,2@0,3@1)",
    # written back unchanged, colours and edges in order: only the
    # connectivity check rejects it
    "disconnected": "0;0,0;edges=(1-1);legs=(1@0,2@1,3@1)",
    # written back unchanged, genus prefix right: only the weight check
    # rejects it
    "negative-weight": "0;0,0,-1;edges=(0-1,1-2,2-2);legs=(1@0,2@0,3@1)",
    # written with a CRLF line end
    "carriage-return": CACHE_LINE + "\r",
}
# The head (genus prefix, weights, edges) of the first line of that file and
# the legs of CACHE_LINE, its second: each piece writes back as itself, and
# in a body after both lines each was read before, so only the check that
# the parts are their own canonical form rejects it.
CROSSED_LINE = "1;0,0,0;edges=(0-1,0-2,1-2);legs=(1@0,2@0,3@1)"


def write_body(path, lines):
    """Write lines as the body of the cache file at path, with the header
    that body gets."""
    data = "".join(line + "\n" for line in lines).encode()
    header = enumeration._cache_header(
        str(path), data, hashlib.sha256(data).hexdigest())
    path.write_bytes(header + b"\n" + data)


def line_was_rejected(warning) -> bool:
    """Whether a cache warning names a line's own check, not the order of
    the lines."""
    message = str(warning.message)
    return ("bad graph encoding" in message
            or "encoding is not canonical" in message)


class TestCache:
    def test_relabeled_line_is_the_same_class(self):
        line = MALFORMED_LINES["relabeled"]
        assert canonicalize(decode_graph(line))[0].encoding == CACHE_LINE

    def test_failed_store_leaves_nothing_behind(self, tmp_path, monkeypatch):
        classes = enumerate_stable_graphs(1, CLASSICAL3, 3).classes
        monkeypatch.setattr(enumeration, "_decoded", {})
        path = tmp_path / "g1_n3_m3_all_x.txt"

        def replace(_src, _dst):
            raise OSError("disk full")
        monkeypatch.setattr(enumeration.os, "replace", replace)
        with pytest.raises(OSError, match="disk full"):
            enumeration._cache_store(str(path), classes)
        assert not path.exists()
        assert list(tmp_path.glob("*.tmp")) == []
        assert enumeration._decoded == {}

    @pytest.mark.parametrize("damage", sorted(MALFORMED_LINES))
    def test_malformed_line_is_recomputed(self, tmp_path, monkeypatch,
                                          damage):
        monkeypatch.setenv("TROPGC_CACHE", str(tmp_path))
        monkeypatch.setattr(enumeration, "_decoded", {})
        computed = enumerate_stable_graphs(1, CLASSICAL3, 3).classes
        [path] = tmp_path.glob("g1_n3_m3_all_*.txt")
        good = path.read_bytes()
        header, body = good.split(b"\n", 1)
        lines = body.decode().splitlines()
        lines[lines.index(CACHE_LINE)] = MALFORMED_LINES[damage]
        write_body(path, lines)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert enumerate_stable_graphs(1, CLASSICAL3, 3).classes == \
                computed
        assert [str(w.message).split(":")[0] for w in caught] == [
            f"ignoring cache file {path}"]
        assert line_was_rejected(caught[0])
        assert path.read_bytes() == good

    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    @pytest.mark.parametrize("bad", sorted(MALFORMED_LINES) + ["crossed"])
    def test_bad_line_anywhere_in_a_body_is_recomputed(
            self, tmp_path, monkeypatch, bad, position):
        # In the middle or last, the good lines before a bad one have read
        # the head of most malformed lines, and both pieces of the crossed
        # line, so a piece read before decides nothing.
        monkeypatch.setenv("TROPGC_CACHE", str(tmp_path))
        monkeypatch.setattr(enumeration, "_decoded", {})
        computed = enumerate_stable_graphs(1, CLASSICAL3, 3).classes
        [path] = tmp_path.glob("g1_n3_m3_all_*.txt")
        good = path.read_bytes()
        line = CROSSED_LINE if bad == "crossed" else MALFORMED_LINES[bad]
        with pytest.raises(ValueError):
            reference_decode(line)
        lines = [cg.encoding for cg in computed]
        assert lines[1] == CACHE_LINE
        assert lines[0].rpartition(";")[0] == CROSSED_LINE.rpartition(";")[0]
        lines.insert({"first": 0, "middle": len(lines) // 2,
                      "last": len(lines)}[position], line)
        write_body(path, lines)
        with mock.patch.dict(graphs._canon_cache, clear=True):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert enumerate_stable_graphs(1, CLASSICAL3, 3).classes == \
                    computed
        assert [str(w.message).split(":")[0] for w in caught] == [
            f"ignoring cache file {path}"]
        assert line_was_rejected(caught[0])
        assert path.read_bytes() == good

    @pytest.mark.parametrize("edit", ["repeated-line", "swapped-lines"])
    def test_body_out_of_order_is_recomputed(self, tmp_path, monkeypatch,
                                             edit):
        """Every line of these bodies is canonical, but they do not strictly
        increase, as the lines are written. Believed, a repeated line
        counts its class twice: classical (1,4) gives b_2 = 4, not 3."""
        monkeypatch.setenv("TROPGC_CACHE", str(tmp_path))
        monkeypatch.setattr(enumeration, "_decoded", {})
        a = WeightDatum(1, (Fraction(1),) * 4)
        betti = homology(build_graph_complex(1, a)).betti
        assert betti[2] == 3
        [path] = tmp_path.glob("g1_n4_m4_pure_*.txt")
        good = path.read_bytes()
        lines = good.decode().splitlines()[1:]
        if edit == "repeated-line":
            lines.insert(0, lines[0])
        else:
            lines[0], lines[1] = lines[1], lines[0]
        write_body(path, lines)
        enumeration._decoded.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert homology(build_graph_complex(1, a)).betti == betti
        assert [str(w.message) for w in caught] == [
            f"ignoring cache file {path}: its lines are not in increasing "
            f"order; recomputing"]
        assert path.read_bytes() == good

    def test_good_bodies_decode_as_reference(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TROPGC_CACHE", str(tmp_path))
        monkeypatch.setattr(enumeration, "_decoded", {})
        for a, pure in DECODER_CASES:
            for m in range(max_edges(a.g, a.n) + 1):
                enumerate_stable_graphs(a.g, a, m, pure)
        enumeration._decoded.clear()
        paths = sorted(tmp_path.glob("*.txt"))
        with mock.patch.dict(graphs._canon_cache, clear=True):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                loaded = [enumeration._cache_load(str(p)) for p in paths]
        assert sum(map(len, loaded)) == len(decoder_classes())
        for path, classes in zip(paths, loaded):
            lines = path.read_text().split("\n")[1:-1]
            assert [cg.encoding for cg in classes] == lines
            assert classes == tuple(map(reference_decode, lines))

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
        real_check = enumeration._decode_canonical

        def counting_check(line, pieces):
            decoded.append(line)
            return real_check(line, pieces)

        monkeypatch.setattr(enumeration, "_decode_canonical", counting_check)
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

        def no_decode(line, pieces):
            raise AssertionError(f"decoded again: {line}")

        monkeypatch.setattr(enumeration, "_decode_canonical", no_decode)
        assert enumerate_stable_graphs(1, CLASSICAL3, 3).classes == computed

    def test_body_without_final_newline_is_recomputed(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setenv("TROPGC_CACHE", str(tmp_path))
        monkeypatch.setattr(enumeration, "_decoded", {})
        computed = enumerate_stable_graphs(1, CLASSICAL3, 3).classes
        [path] = tmp_path.glob("g1_n3_m3_all_*.txt")
        good = path.read_bytes()
        data = good.split(b"\n", 1)[1][:-1]
        header = enumeration._cache_header(
            str(path), data, hashlib.sha256(data).hexdigest())
        path.write_bytes(header + b"\n" + data)
        with pytest.warns(UserWarning, match="no newline") as caught:
            assert enumerate_stable_graphs(1, CLASSICAL3, 3).classes == \
                computed
        assert len(caught) == 1
        assert path.read_bytes() == good


# (datum, pure only): (1,4) (all and pure), pure (2,3), the (0,7)
# heavy/light datum with 4 heavy markings and the pure (1,5) floor datum at
# level 4
DECODER_CASES = ((WeightDatum(1, (Fraction(1),) * 4), False),
                 (WeightDatum(1, (Fraction(1),) * 4), True),
                 (WeightDatum(2, (Fraction(1),) * 3), True),
                 (make_heavy_light(0, 7, 4), False),
                 (make_floor(1, 5, 4), True))


@lru_cache(maxsize=None)
def decoder_classes():
    """Every class of every DECODER_CASES datum, every edge count."""
    classes = []
    for a, pure in DECODER_CASES:
        for m in range(max_edges(a.g, a.n) + 1):
            classes += enumerate_stable_graphs(a.g, a, m, pure).classes
    return tuple(classes)


@lru_cache(maxsize=None)
def decoder_pieces():
    """The pieces dict left by decoding every decoder_classes line, in
    order, through one dict, as a cache load decodes a body."""
    pieces = {}
    with mock.patch.dict(graphs._canon_cache, clear=True):
        for cg in decoder_classes():
            graphs._decode_canonical(cg.encoding, pieces)
    return pieces


# characters a single-character edit of a cache line inserts or writes
EDIT_CHARS = "0123456789,;-@()+ _"


def decoded_as_reference(line, pieces=None):
    """graphs._decode_canonical(line, pieces), pieces {} unless given, or
    None on ValueError, after checking that reference_decode accepts line
    exactly when it does, with the same class."""
    try:
        decoded = graphs._decode_canonical(
            line, {} if pieces is None else pieces)
    except ValueError:
        decoded = None
    try:
        expected = reference_decode(line)
    except ValueError:
        expected = None
    assert decoded == expected
    return decoded


class TestDecodeCanonical:
    def test_every_class_decodes_to_itself(self):
        classes = decoder_classes()
        with mock.patch.dict(graphs._canon_cache, clear=True):
            for cg in classes:
                line = cg.encoding
                decoded = graphs._decode_canonical(line, {})
                assert decoded is not cg
                assert decoded == cg
                assert decoded.encoding is line

    @pytest.mark.parametrize("damage", sorted(MALFORMED_LINES))
    @pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
    def test_malformed_line_is_rejected_as_by_reference(self, damage, cold):
        with mock.patch.dict(graphs._canon_cache, clear=cold):
            assert decoded_as_reference(CACHE_LINE) is not None
            assert decoded_as_reference(MALFORMED_LINES[damage]) is None

    @pytest.mark.parametrize("damage", sorted(MALFORMED_LINES))
    def test_rejected_line_is_no_encoding(self, damage):
        # a line becomes the encoding only of the form it is written from
        with mock.patch.dict(graphs._canon_cache, clear=True):
            with pytest.raises(ValueError):
                graphs._decode_canonical(MALFORMED_LINES[damage], {})
            for cg, _ in graphs._canon_cache.values():
                assert cg.encoding == encode_graph(cg.graph)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_edited_line_is_rejected_or_its_own_encoding(self, data):
        # The reference acceptor decides which edits are accepted, and
        # encode_graph confirms that an accepted edit is its form's encoding.
        line = data.draw(st.sampled_from(decoder_classes())).encoding
        edit = data.draw(st.sampled_from(("insert", "delete", "replace")))
        at = data.draw(st.integers(0, len(line) - (edit != "insert")))
        new = ("" if edit == "delete"
               else data.draw(st.sampled_from(EDIT_CHARS)))
        edited = line[:at] + new + line[at + (edit != "insert"):]
        cold = data.draw(st.booleans(), label="cold memo")
        # pieces read before, as by the lines above it in a body
        read = data.draw(st.booleans(), label="pieces read")
        pieces = dict(decoder_pieces()) if read else {}
        with mock.patch.dict(graphs._canon_cache, clear=cold):
            decoded = decoded_as_reference(edited, pieces)
        if decoded is None:
            return
        assert encode_graph(decoded.graph) == edited
        assert decoded.encoding == edited

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_crossed_line_is_decoded_as_by_reference(self, data):
        # the head of one line and the legs of another, both read before:
        # the pieces are found, and the parts decide
        head, legs = (data.draw(st.sampled_from(decoder_classes())).encoding
                      for _ in range(2))
        crossed = head[:head.rindex(";")] + legs[legs.rindex(";"):]
        pieces = dict(decoder_pieces())
        cold = data.draw(st.booleans(), label="cold memo")
        with mock.patch.dict(graphs._canon_cache, clear=cold):
            decoded = decoded_as_reference(crossed, pieces)
        assert pieces == decoder_pieces()
        if decoded is not None:
            assert decoded.encoding == crossed
