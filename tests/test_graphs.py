"""Marked weighted graphs: stability, contraction, canonical forms."""

import copy
import pickle
import random
import warnings
from fractions import Fraction
from itertools import permutations
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tropgc import (DomainError, DomainGapWarning, WeightDatum,
                    apply_permutation, signature)
from tropgc import graphs
from tropgc.graphs import (
    MarkedGraph,
    _canonicalize_parts,
    _contracted_shape,
    _moved_legs,
    canonicalize,
    contract_edge,
    genus,
    has_loops,
    is_pure,
    is_stable,
)

from .oracles import (_contract, decode_graph, encode_graph,
                      reference_canonicalize, reference_is_stable,
                      relabel_legs)

LOOP = MarkedGraph((0,), ((0, 0),), (0, 0, 0))
LOOP_BRIDGE = MarkedGraph((0, 0), ((0, 0), (0, 1)), (1, 1, 1))
BANANA = MarkedGraph((0, 0), ((0, 1), (0, 1)), (0, 1, 1))
TRIANGLE = MarkedGraph((0, 0, 0), ((0, 1), (0, 2), (1, 2)), (0, 1, 2))
# loop at vertex 0 carrying marking 1; vertex 1 carries markings 2 and 3
GRAPHONE = MarkedGraph((0, 0), ((0, 0), (0, 1)), (0, 1, 1))
G1_GENUS2 = MarkedGraph(
    (0, 0, 0, 0, 0),
    ((0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)),
    (4, 0, 0),
)


def datum(g: int, *entries) -> WeightDatum:
    return WeightDatum(g, tuple(Fraction(e) for e in entries))


# Invalid (weights, edges, legs) and the constructor's message for each.
INVALID = [
    ((), (), (), "graph needs at least one vertex"),
    ((0, -1), ((0, 1),), (), "vertex weights must be nonnegative"),
    ((0,), ((1, 0),), (), "edge (0,1) endpoint out of range"),
    ((0, 0), ((0, 1), (1, -1)), (), "edge (-1,1) endpoint out of range"),
    ((0,), (), (0, 1), "leg vertex 1 out of range"),
    ((0, 0), ((0, 1),), (0, -1, 2), "leg vertex -1 out of range"),
    ((0, 0), (), (), "graph must be connected"),
    ((0, 0, 0), ((0, 1), (1, 0), (2, 2)), (), "graph must be connected"),
]

# For each INVALID case, a valid graph that its parts would name if indices
# wrapped around, negative weights lost their sign or a missing edge were
# there: the lookup must not reach its form.
WARM = [
    ((0,), (), ()),
    ((0, 1), ((0, 1),), ()),
    ((0,), ((0, 0),), ()),
    ((0, 0), ((0, 1), (1, 1)), ()),
    ((0,), (), (0, 0)),
    ((0, 0), ((0, 1),), (0, 1, 0)),
    ((0, 0), ((0, 1),), ()),
    ((0, 0, 0), ((0, 1), (1, 2), (2, 2)), ()),
]


class TestConstruction:
    @pytest.mark.parametrize("weights,edges,legs", [
        ((), (), ()),
        ((0, 0), (), ()),
        ((0,), ((0, 1),), ()),
        ((0,), (), (1,)),
        ((-1,), (), ()),
    ])
    def test_rejects_malformed(self, weights, edges, legs):
        with pytest.raises(ValueError):
            MarkedGraph(weights, edges, legs)

    @pytest.mark.parametrize("weights,edges,legs,message", INVALID)
    def test_invalid_graph_message(self, weights, edges, legs, message):
        with pytest.raises(ValueError) as info:
            MarkedGraph(weights, edges, legs)
        assert str(info.value) == message

    @pytest.mark.parametrize("weights,edges,legs,bad", [
        ((1.5,), (), (0,), 1.5),
        ((Fraction(3, 2),), (), (0,), Fraction(3, 2)),
        ((True,), (), (0,), True),
        ((1,), (), (0.7,), 0.7),
        ((0, 0), ((0.0, 1),), (), 0.0),
        ((0, 0), ((1, "0"),), (), "0"),
        # not the one-vertex genus-1 graph 1;1;edges=();legs=(1@0)
        ((1.5,), (), (0.7,), 1.5),
    ])
    def test_rejects_non_int_parts(self, weights, edges, legs, bad):
        with pytest.raises(TypeError) as info:
            MarkedGraph(weights, edges, legs)
        assert str(info.value) == ("weights, edge ends and legs must be "
                                   f"ints, not {bad!r}")

    def test_edges_stored_sorted_per_edge(self):
        g = MarkedGraph((0, 0), ((1, 0), (0, 1)), (0, 1))
        assert g.edges == ((0, 1), (0, 1))
        # lists are stored as tuples
        assert MarkedGraph([0, 0], [[1, 0], [0, 1]], [0, 1]) == g


COPIES = [copy.copy, copy.deepcopy] + [
    lambda x, protocol=protocol: pickle.loads(pickle.dumps(x, protocol))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]


class TestRecords:
    """A graph is its (weights, edges, legs) tuple; a class keeps its
    encoding in a slot."""

    GRAPHS = (LOOP, LOOP_BRIDGE, BANANA, TRIANGLE, GRAPHONE, G1_GENUS2)

    def test_graph_is_its_parts_tuple(self):
        for graph in self.GRAPHS:
            parts = (graph.weights, graph.edges, graph.legs)
            assert graph == parts
            assert hash(graph) == hash(parts)
            assert tuple(graph) == parts
            assert MarkedGraph(*parts) == graph
            assert MarkedGraph(weights=parts[0], edges=parts[1],
                               legs=parts[2]) == graph

    def test_graph_fields_are_read_only(self):
        with pytest.raises(AttributeError):
            LOOP.weights = (1,)
        with pytest.raises(AttributeError):
            LOOP.extra = 1
        assert LOOP.weights == (0,)

    def test_no_instance_dict(self):
        cg, _ = canonicalize(BANANA)
        assert not hasattr(BANANA, "__dict__")
        assert not hasattr(cg, "__dict__")

    def test_repr(self):
        assert repr(LOOP) == ("MarkedGraph(weights=(0,), edges=((0, 0),), "
                              "legs=(0, 0, 0))")
        assert repr(canonicalize(LOOP)[0]) == (
            f"CanonicalGraph(graph={LOOP!r}, has_odd_edge_automorphism="
            "False, automorphism_generators=())")

    @pytest.mark.parametrize("copier", COPIES)
    def test_copies_are_equal_records(self, copier):
        for graph in self.GRAPHS:
            cg, _ = canonicalize(graph)
            for record in (graph, cg):
                copied = copier(record)
                assert type(copied) is type(record)
                assert copied == record
                assert hash(copied) == hash(record)
            assert copier(cg).encoding == cg.encoding == encode_graph(cg.graph)

    @pytest.mark.parametrize("copier", COPIES)
    def test_copies_are_built_by_the_constructor(self, copier):
        unchecked = tuple.__new__(MarkedGraph, ((0, 0), (), ()))
        with pytest.raises(ValueError, match="graph must be connected"):
            copier(unchecked)

    def test_class_equality_ignores_encoding(self):
        cg, _ = canonicalize(TRIANGLE)
        other = copy.copy(cg)
        other.encoding = "not an encoding"
        assert other == cg and hash(other) == hash(cg)
        assert cg != cg.graph

    def test_class_hash_is_the_hash_of_its_first_three_fields(self):
        for graph in self.GRAPHS:
            cg, _ = canonicalize(graph)
            fields = (cg.graph, cg.has_odd_edge_automorphism,
                      cg.automorphism_generators)
            assert hash(cg) == hash(fields)
            assert cg != fields and fields != cg
            assert cg != (*fields, cg.encoding)


class TestGenus:
    def test_loop_graph(self):
        assert genus(LOOP) == 1
        assert is_pure(LOOP) and has_loops(LOOP)

    def test_genus_two_generator(self):
        assert genus(G1_GENUS2) == 2
        assert is_pure(G1_GENUS2) and not has_loops(G1_GENUS2)

    def test_weighted_point(self):
        assert genus(MarkedGraph((2,), (), (0,))) == 2


class TestStability:
    def test_loop_plus_bridge_example(self):
        assert is_stable(GRAPHONE, 1, datum(1, "1/100", "2/3", "2/3"))

    def test_fails_when_light_marking_moves(self):
        assert not is_stable(GRAPHONE, 1, datum(1, "2/3", "1/100", "2/3"))

    def test_weighted_point_always_stable(self):
        for a in (datum(1, 1, 1, 1), datum(1, "1/100", "1/100", "1/100")):
            assert is_stable(MarkedGraph((1,), (), (0, 0, 0)), 1, a)

    def test_leg_count_mismatch(self):
        with pytest.raises(DomainError):
            is_stable(LOOP, 1, datum(1, 1, 1))

    def test_genus_mismatch(self):
        with pytest.raises(DomainError):
            is_stable(LOOP, 2, datum(2, 1, 1, 1))

    def test_vertex_total_zero_is_unstable(self):
        # vertex 0: -2 + 1 + 1/4 + 3/4 = 0 exactly; vertex 1: -1 + 2 = 1
        graph = MarkedGraph((0, 0), ((0, 1),), (0, 0, 1, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DomainGapWarning)
            a = datum(0, "1/4", "3/4", 1, 1)
        assert not is_stable(graph, 0, a)
        assert not reference_is_stable(graph, 0, a)
        assert is_stable(graph, 0, datum(0, "1/4", "49/60", 1, 1))


class TestContraction:
    def test_bridge_contracts_to_loop_graph(self):
        contracted = contract_edge(LOOP_BRIDGE, 1)
        assert canonicalize(contracted)[0] == canonicalize(LOOP)[0]

    def test_loop_contracts_to_weight_bump(self):
        contracted = contract_edge(LOOP, 0)
        assert contracted == MarkedGraph((1,), (), (0, 0, 0))

    def test_nonloop_contraction_preserves_genus(self):
        for graph in (LOOP_BRIDGE, BANANA, TRIANGLE, G1_GENUS2, GRAPHONE):
            for e, (u, v) in enumerate(graph.edges):
                if u != v:
                    assert genus(contract_edge(graph, e)) == genus(graph)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            contract_edge(LOOP, 1)


class TestOddAutomorphisms:
    def test_banana_is_zero_generator(self):
        assert canonicalize(BANANA)[0].has_odd_edge_automorphism

    def test_loop_flip_fixes_edge_set(self):
        assert not canonicalize(LOOP)[0].has_odd_edge_automorphism

    def test_triangle_is_rigid(self):
        cg = canonicalize(TRIANGLE)[0]
        assert not cg.has_odd_edge_automorphism
        assert cg.automorphism_generators == ()


class TestRelabel:
    def test_swap_markings_transports_stability(self):
        swapped = relabel_legs(GRAPHONE, (2, 1, 3))
        assert swapped.legs == (1, 0, 1)
        assert is_stable(swapped, 1, datum(1, "2/3", "1/100", "2/3"))

    def test_identity(self):
        assert relabel_legs(GRAPHONE, (1, 2, 3)) == GRAPHONE

    def test_relabel_then_inverse(self):
        sigma = (3, 1, 2)
        inverse = tuple(sigma.index(j) + 1 for j in (1, 2, 3))
        back = relabel_legs(relabel_legs(GRAPHONE, sigma), inverse)
        assert back == GRAPHONE
        assert canonicalize(back)[0] == canonicalize(GRAPHONE)[0]

    def test_stability_equivariance(self):
        a = datum(1, "1/100", "2/3", "2/3")
        for sigma in permutations((1, 2, 3)):
            moved = relabel_legs(GRAPHONE, sigma)
            assert is_stable(moved, 1, apply_permutation(sigma, a)) == \
                is_stable(GRAPHONE, 1, a)

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            relabel_legs(GRAPHONE, (1, 1, 3))


def _permute_vertices(graph: MarkedGraph, perm: list[int]) -> MarkedGraph:
    weights = [0] * len(graph.weights)
    for old, w in enumerate(graph.weights):
        weights[perm[old]] = w
    edges = tuple((perm[u], perm[v]) for u, v in graph.edges)
    legs = tuple(perm[v] for v in graph.legs)
    return MarkedGraph(tuple(weights), edges, legs)


class TestCanonicalize:
    def test_idempotent(self):
        for graph in (LOOP, LOOP_BRIDGE, BANANA, TRIANGLE, G1_GENUS2):
            cg, _ = canonicalize(graph)
            again, edge_map = canonicalize(cg.graph)
            assert again == cg
            assert again.graph == cg.graph

    def test_stable_under_randomized_relabelings(self):
        rng = random.Random(20260814)
        for graph in (LOOP, LOOP_BRIDGE, BANANA, TRIANGLE,
                      G1_GENUS2, GRAPHONE):
            reference = canonicalize(graph)[0]
            for _ in range(200):
                perm = list(range(len(graph.weights)))
                rng.shuffle(perm)
                moved = _permute_vertices(graph, perm)
                order = list(range(len(graph.edges)))
                rng.shuffle(order)
                moved = MarkedGraph(moved.weights,
                                    tuple(moved.edges[k] for k in order),
                                    moved.legs)
                assert canonicalize(moved)[0] == reference

    def test_stability_depends_only_on_signature(self):
        rng = random.Random(7)
        graphs = [LOOP, LOOP_BRIDGE, BANANA, TRIANGLE, GRAPHONE]
        for _ in range(50):
            entries = tuple(Fraction(rng.randint(1, 12), 12) for _ in range(3))
            a = WeightDatum(1, entries)
            b = apply_permutation((1, 2, 3), a)
            twin = WeightDatum(1, tuple(
                e if rng.random() < 0.5 else e - Fraction(1, 97 * 12)
                for e in a.entries))
            if signature(twin) == signature(a):
                for graph in graphs:
                    assert is_stable(graph, 1, twin) == is_stable(graph, 1, a)
            assert signature(b) == signature(a)


@st.composite
def connected_graphs(draw):
    """Connected graphs on 1..6 vertices: a random spanning tree plus up to
    four more edges (loops and parallel edges included), in random order and
    orientation, weights 0..2. Half of them carry one marking per vertex, so
    that every color class is a single vertex."""
    nv = draw(st.integers(1, 6))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, nv)]
    vertex = st.integers(0, nv - 1)
    extra = draw(st.lists(st.one_of(st.tuples(vertex, vertex),
                                    st.sampled_from(tree or [(0, 0)]),
                                    vertex.map(lambda v: (v, v))),
                          max_size=4))
    edges = [(v, u) if draw(st.booleans()) else (u, v)
             for u, v in draw(st.permutations(tree + extra))]
    weights = draw(st.lists(st.integers(0, 2), min_size=nv, max_size=nv))
    legs = draw(st.lists(vertex, max_size=5))
    if draw(st.booleans()):
        legs = draw(st.permutations(list(range(nv)) + legs))
    return tuple(weights), tuple(edges), tuple(legs)


@st.composite
def graphs_with_data(draw):
    """A connected graph with at least one leg, and entries k/60 for a
    datum of its genus, so that vertex totals of exactly 0 are common."""
    weights, edges, legs = draw(connected_graphs())
    graph = MarkedGraph(weights, edges, legs or (0,))
    ks = draw(st.lists(st.integers(1, 60), min_size=len(graph.legs),
                       max_size=len(graph.legs)))
    return graph, tuple(ks)


class TestStabilityReference:
    @settings(max_examples=400, deadline=None)
    @given(graphs_with_data())
    @example((MarkedGraph((0, 0), ((0, 1),), (0, 0, 1, 1)),
              (15, 45, 60, 60)))                      # a total of 0
    @example((MarkedGraph((1, 0), ((0, 1), (1, 1)), (0, 1)),
              (30, 60)))                              # weight and loop
    def test_matches_fraction_loop(self, case):
        graph, ks = case
        g = genus(graph)
        assume(60 * (2 * g - 2) + sum(ks) > 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DomainGapWarning)
            a = WeightDatum(g, tuple(Fraction(k, 60) for k in ks))
        assert is_stable(graph, g, a) == reference_is_stable(graph, g, a)

    def test_errors_match_fraction_loop(self):
        for check in (is_stable, reference_is_stable):
            with pytest.raises(DomainError, match="length differs"):
                check(LOOP, 1, datum(1, 1, 1))
            with pytest.raises(DomainError, match="has genus 1, expected 2"):
                check(LOOP, 2, datum(2, 1, 1, 1))



@st.composite
def graphs_with_chains(draw):
    """A connected graph with at least one leg and three entrywise
    non-decreasing k/60 entry tuples, the entries of a nested chain."""
    graph, ks = draw(graphs_with_data())
    more = [draw(st.lists(st.integers(1, 60), min_size=len(ks),
                          max_size=len(ks))) for _ in range(2)]
    columns = [sorted(column) for column in zip(ks, *more)]
    return graph, [tuple(column[p] for column in columns) for p in range(3)]


class TestStabilityLevels:
    @settings(max_examples=300, deadline=None)
    @given(graphs_with_chains())
    @example((MarkedGraph((0, 0), ((0, 1),), (0, 0, 1, 1)),
              [(15, 15, 15, 15), (15, 45, 60, 60), (60, 60, 60, 60)]))
    @example((GRAPHONE, [(1, 1, 1), (1, 40, 40), (60, 60, 60)]))  # level 2
    @example((MarkedGraph((1, 0), ((0, 1),), (1,)),
              [(1,), (30,), (60,)]))                  # a leaf: level 0
    def test_first_level_of_reference_stability(self, case):
        graph, rows = case
        g = genus(graph)
        assume(60 * (2 * g - 2) + sum(rows[0]) > 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DomainGapWarning)
            chain = [WeightDatum(g, tuple(Fraction(k, 60) for k in row))
                     for row in rows]
        stable = [reference_is_stable(graph, g, a) for a in chain]
        want = stable.index(True) + 1 if True in stable else 0
        assert graphs._stability_levels(g, chain, [graph]) == (want,)
        # stability is monotone along an entrywise non-decreasing chain
        assert stable == sorted(stable)

    def test_one_level_per_graph_and_zero_for_none(self):
        chain = [datum(1, "1/100", "1/100", "1/100"),
                 datum(1, "1/100", "2/3", "2/3"), datum(1, 1, 1, 1)]
        one_vertex = MarkedGraph((1,), (), (0, 0, 0))
        # markings 1 and 2 on the leaf of GRAPHONE: 1/100 + 2/3 < 1
        swapped = MarkedGraph((0, 0), ((0, 0), (0, 1)), (1, 1, 0))
        assert graphs._stability_levels(
            1, chain, [one_vertex, GRAPHONE, swapped]) == (1, 2, 3)
        assert graphs._stability_levels(1, chain[:2], [swapped, LOOP]) == \
            (0, 1)

    def test_errors_in_order(self):
        # genus is checked before the datum length, graph by graph
        with pytest.raises(DomainError, match="has genus 1, expected 2"):
            graphs._stability_levels(2, [datum(2, 1, 1)], [LOOP])
        with pytest.raises(DomainError, match="length differs"):
            graphs._stability_levels(1, [datum(1, 1, 1)], [LOOP])
        with pytest.raises(DomainError, match="has genus 0, expected 1"):
            graphs._stability_levels(1, [datum(1, 1, 1, 1)],
                                     [LOOP, MarkedGraph((0,), (), (0,) * 3)])
        with pytest.raises(DomainError, match="length differs"):
            graphs._stability_levels(
                1, [datum(1, 1, 1, 1), datum(1, 1, 1)], [LOOP])


class TestReferenceCanonicalize:
    @settings(max_examples=400, deadline=None)
    @given(connected_graphs())
    @example(((0, 0), ((0, 1), (1, 0)), (1, 0)))       # banana, singletons
    @example(((0, 0), ((1, 1), (0, 1), (1, 1)), (0, 1)))  # twin loops
    @example(((0,) * 6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)),
              ()))                                      # one color, 6!
    @example(((1, 0, 2), ((2, 1), (0, 1)), (2, 0, 1)))  # rigid path
    def test_matches_brute_force(self, triple):
        cg, edge_map = canonicalize(MarkedGraph(*triple))
        got = ((cg.graph.weights, cg.graph.edges, cg.graph.legs),
               cg.has_odd_edge_automorphism, cg.automorphism_generators,
               edge_map)
        assert got == reference_canonicalize(*triple)


def _canonical_fields(result):
    cg, edge_map = result
    return ((cg.graph.weights, cg.graph.edges, cg.graph.legs),
            cg.has_odd_edge_automorphism, cg.automorphism_generators,
            edge_map)


class TestPartsLookup:
    @settings(max_examples=300, deadline=None)
    @given(connected_graphs())
    def test_canonicalize_parts_matches_constructor_and_reference(self,
                                                                  triple):
        graph = MarkedGraph(*triple)
        parts = (graph.weights, graph.edges, graph.legs)
        want = reference_canonicalize(*triple)
        with mock.patch.dict(graphs._canon_cache, clear=True):
            # a miss on the raw and on the normalized parts, then a hit
            assert _canonical_fields(_canonicalize_parts(*triple)) == want
            graphs._canon_cache.clear()
            assert _canonical_fields(_canonicalize_parts(*parts)) == want
            assert _canonical_fields(_canonicalize_parts(*parts)) == want
            assert _canonical_fields(canonicalize(MarkedGraph(*triple))) == want
        with mock.patch.dict(graphs._canon_cache, clear=True):
            # a hit on what canonicalize memoized
            assert _canonical_fields(canonicalize(graph)) == want
            assert _canonical_fields(_canonicalize_parts(*parts)) == want

    @settings(max_examples=300, deadline=None)
    @given(connected_graphs())
    def test_contracted_parts_match_contraction(self, triple):
        graph = MarkedGraph(*triple)
        for e, (u, v) in enumerate(graph.edges):
            # the two steps of boundary assembly write the parts as the
            # constructor stores them
            weights, edges, remap = _contracted_shape(graph.weights,
                                                      graph.edges, e)
            parts = (weights, edges, _moved_legs(remap, graph.legs))
            assert parts == contract_edge(graph, e)
            if u == v:
                weights = list(graph.weights)
                weights[u] += 1
                want = (tuple(weights), graph.edges[:e] + graph.edges[e + 1:],
                        graph.legs)
            else:
                want = _contract(graph.weights, graph.edges, graph.legs, e)
            assert parts == want

    def test_repeated_contraction_parts_are_a_memo_hit(self):
        # contracting either of the two parallel edges gives the same parts,
        # which are not their own canonical form
        graph = MarkedGraph((0, 0, 0), ((0, 1), (0, 1), (1, 2), (0, 2)),
                            (0, 1, 2))
        parts = contract_edge(graph, 0)
        assert parts == contract_edge(graph, 1)
        with mock.patch.dict(graphs._canon_cache, clear=True):
            first = _canonicalize_parts(*parts)
            assert first[0].graph != parts
            with mock.patch.object(graphs, "_vertex_colors",
                                   side_effect=AssertionError("recomputed")):
                assert _canonicalize_parts(*contract_edge(graph, 1)) \
                    is first

    def test_contracted_parts_rejects_missing_edge(self):
        with pytest.raises(ValueError, match="no edge with index 2"):
            contract_edge(BANANA, 2)

    @pytest.mark.parametrize("weights,edges,legs,message", INVALID)
    def test_invalid_parts_raise_constructor_error(self, weights, edges, legs,
                                                   message):
        assert (weights, edges, legs) not in graphs._canon_cache
        with pytest.raises(ValueError) as info:
            _canonicalize_parts(weights, edges, legs)
        assert str(info.value) == message

    @pytest.mark.parametrize("invalid,warm", zip(INVALID, WARM))
    def test_invalid_parts_raise_with_memo_warmed(self, invalid, warm):
        weights, edges, legs, message = invalid
        with mock.patch.dict(graphs._canon_cache, clear=True):
            cg, _ = canonicalize(MarkedGraph(*warm))
            assert (cg.graph.weights, cg.graph.edges,
                    cg.graph.legs) in graphs._canon_cache
            with pytest.raises(ValueError) as info:
                _canonicalize_parts(weights, edges, legs)
            assert str(info.value) == message
            assert (weights, edges, legs) not in graphs._canon_cache


class TestEncoding:
    def test_round_trip(self):
        for graph in (LOOP, LOOP_BRIDGE, BANANA, TRIANGLE, G1_GENUS2):
            assert decode_graph(encode_graph(graph)) == graph

    def test_loop_encoding_text(self):
        assert encode_graph(LOOP) == "1;0;edges=(0-0);legs=(1@0,2@0,3@0)"

    @pytest.mark.parametrize("legs", [
        "1@0,1@0",            # a marking twice
        "1@0,1@0,2@0,3@0",    # a marking twice among others
        "1@0,3@0",            # a gap
        "0@0",                # numbering starts at 1
    ])
    def test_markings_must_be_one_to_k_once(self, legs):
        with pytest.raises(ValueError, match="bad graph encoding"):
            decode_graph(f"1;0;edges=(0-0);legs=({legs})")

    @pytest.mark.parametrize("text", [
        "x;0;edges=();legs=(1@0)",        # genus prefix not an integer
        ";0;edges=();legs=(1@0)",         # empty genus prefix
        "1;a;edges=(0-0);legs=()",        # weight not an integer
        "1;0;edges=(0-x);legs=()",        # edge end not an integer
        "1;0;edges=(0-0)",                # legs part missing
    ])
    def test_malformed_text(self, text):
        with pytest.raises(ValueError, match="bad graph encoding"):
            decode_graph(text)

    def test_markings_in_any_order(self):
        graph = decode_graph("0;0,0;edges=(0-1);legs=(2@1,3@1,1@0)")
        assert graph.legs == (0, 1, 1)
