"""Marked weighted graphs: stability, contraction, canonical forms."""

import random
from fractions import Fraction
from itertools import permutations
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from tropgc import DomainError, WeightDatum, apply_permutation, signature
from tropgc import graphs
from tropgc.graphs import (
    MarkedGraph,
    _canonicalize_parts,
    _contracted_parts,
    canonicalize,
    contract_edge,
    decode_graph,
    encode_graph,
    genus,
    has_loops,
    is_pure,
    is_stable,
)

from .oracles import _contract, reference_canonicalize, relabel_legs

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

    def test_edges_stored_sorted_per_edge(self):
        g = MarkedGraph((0, 0), ((1, 0), (0, 1)), (0, 1))
        assert g.edges == ((0, 1), (0, 1))



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
    weights = [0] * graph.num_vertices
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
                perm = list(range(graph.num_vertices))
                rng.shuffle(perm)
                moved = _permute_vertices(graph, perm)
                order = list(range(graph.num_edges))
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
            parts = _contracted_parts(graph, e)
            contracted = contract_edge(graph, e)
            assert parts == (contracted.weights, contracted.edges,
                             contracted.legs)
            if u == v:
                weights = list(graph.weights)
                weights[u] += 1
                want = (tuple(weights), graph.edges[:e] + graph.edges[e + 1:],
                        graph.legs)
            else:
                want = _contract(graph.weights, graph.edges, graph.legs, e)
            assert parts == want

    def test_contracted_parts_rejects_missing_edge(self):
        with pytest.raises(ValueError, match="no edge with index 2"):
            _contracted_parts(BANANA, 2)

    @pytest.mark.parametrize("weights,edges,legs,message", INVALID)
    def test_invalid_parts_raise_constructor_error(self, weights, edges, legs,
                                                   message):
        assert (weights, edges, legs) not in graphs._canon_cache
        with pytest.raises(ValueError) as info:
            _canonicalize_parts(weights, edges, legs)
        assert str(info.value) == message


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
