"""End-to-end acceptance checks with wall-time bounds.

Every numeric assertion is exact; time bounds are generous ceilings meant
to catch algorithmic regressions, not to benchmark.
"""

import random
import time
from fractions import Fraction

import pytest

from tropgc import (
    WeightDatum,
    apply_permutation,
    build_cellular_complex,
    build_graph_complex,
    build_relative_complex,
    compare_up_to_symmetry,
    decomposition_report,
    enumerate_chambers,
    enumerate_stable_graphs,
    feasible_point,
    filtered_from_raw,
    homology,
    make_floor,
    make_heavy_light,
    make_minimal,
    max_edges,
    page_dim,
    page_table,
    signature,
    split_AB,
)
from tropgc.graphs import MarkedGraph, canonicalize, is_stable

from .oracles import (_contract, canonical_key, dense_rank,
                      enumerate_classes, express, odd_class, to_rows)
from .pages import e1_relative_check, einfinity_sums

EPS = Fraction(1, 100)
CLASSICAL = {n: WeightDatum(1, (Fraction(1),) * n) for n in (1, 2, 3, 4)}
FIVE_CHAMBER_RAW = [
    WeightDatum(1, (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3) - EPS)),
    WeightDatum(1, (Fraction(4, 9) - EPS,) * 3),
    WeightDatum(1, (Fraction(14, 27) - EPS, Fraction(12, 27),
                    Fraction(14, 27))),
    WeightDatum(1, (Fraction(99, 100), Fraction(12, 27), Fraction(14, 27))),
    CLASSICAL[3],
]
FLOOR_G2_RAW = [make_minimal(2, 3), make_floor(2, 3, 3),
                WeightDatum(2, (Fraction(1),) * 3)]

THETA_TAIL = [
    MarkedGraph((0, 0, 0, 0, 0),
                ((0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)), legs)
    for legs in [(4, 0, 0), (0, 4, 0), (0, 0, 4)]
]
DOUBLE_BRANCH = [
    MarkedGraph((0, 0, 0, 0, 0),
                ((0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 4)), legs)
    for legs in [(4, 0, 1), (0, 4, 1), (0, 1, 4)]
]


class Stopwatch:
    def __init__(self, bound: float):
        self.bound = bound
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.bound, \
            f"took {elapsed:.1f}s, bound is {self.bound}s"


def test_chamber_census_counts():
    watch = Stopwatch(1.0)
    assert len(enumerate_chambers(1, 2).chambers) == 2
    assert len(enumerate_chambers(1, 2).orbits) == 2
    assert len(enumerate_chambers(1, 3).chambers) == 9
    assert len(enumerate_chambers(1, 3).orbits) == 5
    assert len(enumerate_chambers(0, 3).chambers) == 1
    watch.check()


def test_symmetrized_comparison_and_full_exhaustion():
    watch = Stopwatch(120.0)
    a = WeightDatum(1, (Fraction(12, 27), Fraction(14, 27), 1 - EPS))
    b = WeightDatum(1, (Fraction(14, 27) - EPS, Fraction(12, 27),
                        Fraction(14, 27)))
    res = compare_up_to_symmetry(a, b)
    assert res.relation == "Greater"
    moved = signature(apply_permutation(res.witness, a))
    target = signature(b)
    assert all(not q or p for p, q in zip(moved.signs, target.signs))

    half = Fraction(1, 2)
    big = WeightDatum(1, (half + 2 * EPS,) + (half - EPS,) * 6 + (2 * EPS,))
    small = WeightDatum(1, (half + EPS,) * 4 + (EPS,) * 4)
    counters: dict[str, int] = {}
    res8 = compare_up_to_symmetry(big, small, counters=counters)
    # Incomparable after every distinct arrangement of big: 8!/6! = 56.
    assert res8.relation == "Incomparable"
    assert counters == {"permutations": 56,
                        "subset_comparisons": 56 * 247}
    watch.check()


def test_top_weight_cohomology_of_m13_and_m14():
    watch = Stopwatch(5.0)
    rep3 = homology(build_graph_complex(1, CLASSICAL[3]))
    assert rep3.betti == {-1: 0, 0: 0, 1: 1}
    labels = {(r["weight"], r["degree"]): r["dim"] for r in rep3.topweight}
    assert labels == {(6, 3): 1, (6, 4): 0, (6, 5): 0}

    rep4 = homology(build_graph_complex(1, CLASSICAL[4]))
    assert rep4.betti[2] == 3
    assert all(v == 0 for k, v in rep4.betti.items() if k != 2)
    watch.check()


def test_five_chamber_spectral_sequence():
    watch = Stopwatch(5.0)
    f = filtered_from_raw(1, FIVE_CHAMBER_RAW)
    assert page_table(f, 5).nonzero() == {(1, 0): 1}
    report = decomposition_report(f)
    assert report.ok
    assert einfinity_sums(report) == report.betti
    watch.check()


def test_graph_cellular_and_split_homology_agree():
    watch = Stopwatch(30.0)
    for n in (2, 3, 4):
        a = CLASSICAL[n]
        graph_betti = homology(build_graph_complex(1, a)).betti
        cell = build_cellular_complex(1, a)
        cell_betti = homology(cell).betti
        a_part, b_part = split_AB(cell)
        a_betti = homology(a_part).betti
        for k, v in homology(b_part).betti.items():
            assert v == 0
        for k, v in graph_betti.items():
            assert cell_betti[k + 1] == v
            assert a_betti[k + 1] == v
    watch.check()


def test_relative_floor_homology_vanishes():
    watch = Stopwatch(5.0)
    rel = build_relative_complex(1, CLASSICAL[3], make_floor(1, 3, 3))
    rep = homology(rel)
    assert all(v == 0 for v in rep.betti.values())
    assert all(row["dim"] == 0 for row in rep.delta)
    watch.check()


@pytest.fixture(scope="module")
def floor_g2():
    return filtered_from_raw(2, FLOOR_G2_RAW)


def test_genus_two_degree_two_generators(floor_g2):
    watch = Stopwatch(600.0)
    basis = build_graph_complex(2, WeightDatum(2, (Fraction(1),) * 3)).basis(2)
    basis_set = set(basis)
    levels = {cg: floor_g2.level_row(2)[basis.index(cg)] for cg in basis}
    for graph in DOUBLE_BRANCH:
        cg = canonicalize(graph)[0]
        assert cg in basis_set and not cg.has_odd_edge_automorphism
        assert levels[cg] == 1
    for graph in THETA_TAIL:
        cg = canonicalize(graph)[0]
        assert cg in basis_set and not cg.has_odd_edge_automorphism
        assert levels[cg] == 3
    watch.check()


def test_genus_two_page_two_class_exists(floor_g2):
    watch = Stopwatch(600.0)
    assert page_dim(floor_g2, 2, 3, -1) >= 1
    watch.check()


def test_genus_two_sixth_cohomology_lower_bound(floor_g2):
    """The floor filtration certifies nothing in H^6(M_{2,3};Q).

    A recorded negative result. The alternating element
    H_1 - H_2 + H_3 - G_1 + G_2 - G_3 of the six degree-2 generators
    (DOUBLE_BRANCH, then THETA_TAIL, each oriented by its edge order as
    written) lies in filtration level 3 and is a cycle on page 2, but not
    an absolute cycle: its boundary is twice a five-edge class, which
    vanishes mod 2 but not over Q. The class dies entering page 3, no
    lower bound is emitted, and b_2 = 0. The cause is checked with the
    brute-force oracles alone, which share no code with the package.
    """
    assert page_dim(floor_g2, 2, 3, -1) == 3
    assert page_dim(floor_g2, 3, 3, -1) == 0

    keys = [(gr.weights, gr.edges, gr.legs)
            for gr in DOUBLE_BRANCH + THETA_TAIL]
    assert not any(odd_class(canonical_key(*key)) for key in keys)
    contractions = [[(i, _contract(*key, i))
                     for i, (a, b) in enumerate(key[1]) if a != b]
                    for key in keys]
    # Odd classes are zero in the complex, so they index no row.
    rows = sorted({canonical_key(*target) for col in contractions
                   for _, target in col})
    rows = [r for r in rows if not odd_class(r)]
    columns = []
    for col in contractions:
        image = [Fraction(0)] * len(rows)
        for i, target in col:
            hit = express(*target, rows)
            if hit is not None:
                r, sign = hit
                image[r] += (-1) ** (i + 1) * sign
        columns.append(image)
    element = [h1 - h2 + h3 - g1 + g2 - g3
               for h1, h2, h3, g1, g2, g3 in zip(*columns)]
    assert sorted(abs(v) for v in element if v) == [2]
    # No rational combination of the six generators is a cycle.
    assert dense_rank(list(zip(*columns))) == 6

    report = decomposition_report(floor_g2)
    assert report.ok
    assert not any("H^6(M_{2,3};Q)" in row["label"]
                   for row in report.lower_bounds)
    base = floor_g2.base
    assert max(base.degrees) == 2 and base.dim(2) == 24
    assert dense_rank(to_rows(base.boundary(2))) == 24


def test_filtration_independence():
    watch = Stopwatch(10.0)
    five = decomposition_report(filtered_from_raw(1, FIVE_CHAMBER_RAW))
    heavy = decomposition_report(filtered_from_raw(
        1, [make_heavy_light(1, 3, m) for m in (0, 1, 2)]))
    assert einfinity_sums(five) == einfinity_sums(heavy)
    watch.check()


class TestPropertySuite:
    def test_boundaries_square_to_zero(self):
        for g, a in ((1, CLASSICAL[2]), (1, CLASSICAL[3]), (1, CLASSICAL[4]),
                     (1, make_minimal(1, 3)), (2, make_floor(2, 3, 3))):
            for cx in (build_graph_complex(g, a),
                       build_cellular_complex(g, a)):
                for k in cx.degrees:
                    assert cx.boundary(k).matmul(cx.boundary(k + 1)).is_zero()

    def test_canonical_form_stable_under_relabeling(self):
        rng = random.Random(97)
        instances = [cg.graph for cg in
                     enumerate_stable_graphs(1, CLASSICAL[3], 2).classes]
        instances += [cg.graph for cg in
                      enumerate_stable_graphs(1, CLASSICAL[3], 3).classes]
        for graph in instances:
            reference, _ = canonicalize(graph)
            assert canonicalize(reference.graph)[0] == reference
            for _ in range(200):
                perm = list(range(len(graph.weights)))
                rng.shuffle(perm)
                weights = [0] * len(graph.weights)
                for old, w in enumerate(graph.weights):
                    weights[perm[old]] = w
                order = list(range(len(graph.edges)))
                rng.shuffle(order)
                moved = MarkedGraph(
                    tuple(weights),
                    tuple((perm[graph.edges[k][0]], perm[graph.edges[k][1]])
                          for k in order),
                    tuple(perm[v] for v in graph.legs))
                assert canonicalize(moved)[0] == reference

    def test_stability_determined_by_signature(self):
        rng = random.Random(19)
        pool = [cg.graph for cg in
                enumerate_stable_graphs(1, CLASSICAL[3], 2).classes]
        pool += [cg.graph for cg in
                 enumerate_stable_graphs(1, CLASSICAL[3], 3).classes]
        for _ in range(40):
            entries = tuple(Fraction(rng.randint(1, 30), 30)
                            for _ in range(3))
            a = WeightDatum(1, entries)
            twin = feasible_point(signature(a))
            assert signature(twin) == signature(a)
            for graph in pool:
                assert is_stable(graph, 1, twin) == is_stable(graph, 1, a)

    def test_enumeration_matches_oracle(self):
        cases = [(0, 3), (1, 1), (1, 2), (1, 3)]
        for g, n in cases:
            a = WeightDatum(g, (Fraction(1),) * n)
            for m in range(0, 5):
                want = set(enumerate_classes(g, a.entries, m))
                if m > max_edges(g, n):
                    assert want == set()
                    continue
                got = {canonical_key(cg.graph.weights, cg.graph.edges,
                                     cg.graph.legs)
                       for cg in enumerate_stable_graphs(g, a, m).classes}
                assert got == want, (g, n, m)
        a22 = WeightDatum(2, (Fraction(1),) * 2)
        for m in range(0, 4):
            got = {canonical_key(cg.graph.weights, cg.graph.edges,
                                 cg.graph.legs)
                   for cg in enumerate_stable_graphs(2, a22, m).classes}
            assert got == set(enumerate_classes(2, a22.entries, m)), (2, 2, m)

    def test_partial_order_axioms_exhaustively(self):
        census = enumerate_chambers(1, 3)
        reps = [(feasible_point(s), k)
                for k, orbit in enumerate(census.orbits) for s in orbit]
        n = len(reps)
        rel = {}
        for i, (a, ka) in enumerate(reps):
            for j, (b, kb) in enumerate(reps):
                r = compare_up_to_symmetry(a, b)
                rel[i, j] = r.relation
                assert (r.relation == "Equal") == (ka == kb)
                assert (r.witness is None) == (r.relation == "Incomparable")
        flip = {"Less": "Greater", "Greater": "Less",
                "Equal": "Equal", "Incomparable": "Incomparable"}
        for i in range(n):
            for j in range(n):
                assert rel[j, i] == flip[rel[i, j]]
                if rel[i, j] != "Less":
                    continue
                for k in range(n):
                    if rel[j, k] == "Less":
                        assert rel[i, k] == "Less"

    def test_first_page_equals_stepwise_relative_homology(self, floor_g2):
        filtrations = [
            filtered_from_raw(1, FIVE_CHAMBER_RAW),
            filtered_from_raw(1, [make_heavy_light(1, 3, m)
                                  for m in (0, 1, 2)]),
            filtered_from_raw(1, [CLASSICAL[3]]),
            floor_g2,
        ]
        for f in filtrations:
            assert e1_relative_check(f)
