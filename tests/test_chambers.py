"""Weight data, walls, chamber signatures, and the symmetrized order."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropgc import (
    ChamberSignature,
    DomainError,
    DomainGapWarning,
    OrderResult,
    WeightDatum,
    apply_permutation,
    compare_signatures,
    compare_up_to_symmetry,
    enumerate_chambers,
    feasible_point,
    format_rational,
    identity_permutation,
    is_feasible,
    make_F,
    make_floor,
    make_heavy_light,
    make_minimal,
    parse_rational,
    parse_weights,
    permute_signature,
    signature,
    signature_json,
    wall_set,
)

from .oracles import reference_compare, reference_orbits

EPS = Fraction(1, 100)


def datum(g: int, *entries) -> WeightDatum:
    return WeightDatum(g, tuple(Fraction(e) for e in entries))


class TestRationalParsing:
    def test_round_trip(self):
        for text in ("1/3", "7", "33/100", "1"):
            assert format_rational(parse_rational(text)) == text

    def test_normalization(self):
        assert parse_rational("2/4") == Fraction(1, 2)

    @pytest.mark.parametrize("bad", ["", "1/0", "1.5", "a", "1 /2", "--3"])
    def test_rejects_bad_literals(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_parse_weights(self):
        assert parse_weights("1,1/2, 3/4") == (
            Fraction(1), Fraction(1, 2), Fraction(3, 4))
        with pytest.raises(ValueError):
            parse_weights("")


class TestWeightDatum:
    def test_valid(self):
        a = datum(1, 1, 1, 1)
        assert (a.g, a.n) == (1, 3)

    @pytest.mark.parametrize("g,entries", [
        (1, ()),
        (-1, (Fraction(1),)),
        (1, (Fraction(0), Fraction(1))),
        (1, (Fraction(3, 2),)),
        (0, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))),
    ])
    def test_domain_errors(self, g, entries):
        with pytest.raises(DomainError):
            WeightDatum(g, entries)

    def test_gap_warning(self):
        with pytest.warns(DomainGapWarning):
            datum(0, 1, 1, "9/10")


class TestWallSet:
    @pytest.mark.parametrize("g,n,count", [
        (1, 2, 1), (1, 3, 4), (1, 8, 247), (2, 3, 4),
        (0, 4, 6), (0, 5, 20),
    ])
    def test_counts(self, g, n, count):
        assert len(wall_set(g, n).subsets) == count

    def test_genus_zero_excludes_large_subsets(self):
        ws = wall_set(0, 5)
        assert all(2 <= len(s) <= 3 for s in ws.subsets)


class TestSignature:
    def test_classical_all_plus(self):
        sig = signature(datum(1, 1, 1, 1))
        assert all(sig.signs)

    def test_minimal_chamber_all_minus(self):
        sig = signature(datum(1, "1/3", "1/3", "33/100"))
        assert not any(sig.signs)

    def test_wall_points_count_as_minus(self):
        signs = signature_json(signature(datum(1, "1/2", "1/2", "1/2")))
        assert signs == {"{1,2}": "-", "{1,3}": "-", "{2,3}": "-",
                         "{1,2,3}": "+"}

    def test_non_monotone_pattern_unrepresentable(self):
        ws = wall_set(1, 3)
        signs = tuple(s == frozenset({1, 2}) for s in ws.subsets)
        with pytest.raises(ValueError):
            ChamberSignature(ws, signs)


class TestApplyPermutation:
    def test_three_cycle(self):
        a = datum(1, "1/100", "2/3", "2/3")
        assert apply_permutation((2, 3, 1), a).entries == (
            Fraction(2, 3), Fraction(2, 3), Fraction(1, 100))

    def test_identity(self):
        a = datum(1, "1/100", "2/3", "2/3")
        assert apply_permutation(identity_permutation(3), a) == a

    def test_introduction_example(self):
        a = datum(1, Fraction(14, 27) - EPS, "12/27", "14/27")
        assert apply_permutation((2, 3, 1), a).entries == (
            Fraction(12, 27), Fraction(14, 27), Fraction(14, 27) - EPS)

    def test_signature_equivariance(self):
        a = datum(1, "1/100", "2/3", "2/3")
        sigma = (2, 3, 1)
        assert signature(apply_permutation(sigma, a)) == \
            permute_signature(sigma, signature(a))


def _signs_dominated(lo: ChamberSignature, hi: ChamberSignature) -> bool:
    return all(not p or q for p, q in zip(lo.signs, hi.signs))


def _witness_valid(a: WeightDatum, b: WeightDatum, res) -> bool:
    if res.relation == "Incomparable":
        return res.witness is None
    moved = signature(apply_permutation(res.witness, a))
    target = signature(b)
    if res.relation == "Equal":
        return moved == target
    if res.relation == "Less":
        return _signs_dominated(moved, target)
    return _signs_dominated(target, moved)


class TestCompareSignatures:
    def test_minimal_below_maximal(self):
        lo = signature(make_minimal(1, 3))
        hi = signature(datum(1, 1, 1, 1))
        res = compare_signatures(lo, hi)
        assert res.relation == "Less"
        assert res.witness == (1, 2, 3)

    def test_identical(self):
        s = signature(datum(1, 1, 1, 1))
        assert compare_signatures(s, s).relation == "Equal"

    def test_opposite_pair_signs_incomparable(self):
        census = enumerate_chambers(1, 3)
        pair_signs = [(s, signature_json(s)) for s in census.chambers]
        ch2 = [s for s, js in pair_signs
               if (js["{1,2}"], js["{1,3}"]) == ("+", "-")]
        ch3 = [s for s, js in pair_signs
               if (js["{1,2}"], js["{1,3}"]) == ("-", "+")]
        assert ch2 and ch3
        res = compare_signatures(ch2[0], ch3[0])
        assert res.relation == "Incomparable"
        assert res.witness is None


class TestCompareUpToSymmetry:
    def test_introduction_pair_greater(self):
        a = datum(1, "12/27", "14/27", Fraction(1) - EPS)
        b = datum(1, Fraction(14, 27) - EPS, "12/27", "14/27")
        res = compare_up_to_symmetry(a, b)
        assert res.relation == "Greater"
        assert _witness_valid(a, b, res)

    def test_equal_with_identity_witness(self):
        a = datum(1, 1, 1, 1)
        res = compare_up_to_symmetry(a, a)
        assert res.relation == "Equal"
        assert res.witness == (1, 2, 3)

    def test_eight_markings_incomparable(self):
        half = Fraction(1, 2)
        a = WeightDatum(1, (half + 2 * EPS,) + (half - EPS,) * 6 + (2 * EPS,))
        b = WeightDatum(1, (half + EPS,) * 4 + (EPS,) * 4)
        res = compare_up_to_symmetry(a, b)
        assert res.relation == "Incomparable"
        assert res.witness is None


# Seven markings, 120 walls. HEAVY_PAIR is Plus on S iff S holds both heavy
# entries (0.85 + 5 * 0.024 < 1); FOUR_OF_SEVEN is Plus iff |S| >= 4
# (3 * 0.32 < 1 < 4 * 0.26). No permutation relates them: HEAVY_PAIR is
# Plus on its heavy pair, where FOUR_OF_SEVEN is Minus, and Minus on four
# light entries, where FOUR_OF_SEVEN is Plus. HEAVY_LAST is HEAVY_PAIR with
# the heavy entries moved to positions 6 and 7, so the first witness in
# lexicographic order is (3, 4, 5, 6, 7, 1, 2), of rank 1744.
HEAVY_PAIR = datum(1, "8123/10000", "8456/10000", "150/10000", "170/10000",
                   "190/10000", "210/10000", "230/10000")
FOUR_OF_SEVEN = datum(1, "2650/10000", "2710/10000", "2790/10000",
                      "2850/10000", "2930/10000", "3010/10000", "3150/10000")
HEAVY_LAST = datum(1, "190/10000", "150/10000", "230/10000", "170/10000",
                   "210/10000", "8456/10000", "8123/10000")


class TestCompareCounters:
    # swapped=True compares in the other direction. The first witness is
    # then the inverse (6, 7, 1, 2, 3, 4, 5), of rank 5 * 6! + 5 * 5! = 4200.
    @pytest.mark.parametrize("swapped", [True, False])
    def test_seven_markings_equal(self, swapped):
        counters: dict = {}
        if swapped:
            res = compare_up_to_symmetry(HEAVY_LAST, HEAVY_PAIR, counters)
            witness, evaluated = (6, 7, 1, 2, 3, 4, 5), 4201
        else:
            res = compare_up_to_symmetry(HEAVY_PAIR, HEAVY_LAST, counters)
            witness, evaluated = (3, 4, 5, 6, 7, 1, 2), 1745
        assert res == OrderResult("Equal", witness)
        assert counters == {"permutations": evaluated,
                            "subset_comparisons": evaluated * 120}

    @pytest.mark.parametrize("swapped", [True, False])
    def test_seven_markings_incomparable(self, swapped):
        counters: dict = {}
        a, b = HEAVY_PAIR, FOUR_OF_SEVEN
        if swapped:
            a, b = b, a
        res = compare_up_to_symmetry(a, b, counters)
        assert res == OrderResult("Incomparable", None)
        assert counters == {"permutations": 5040,
                            "subset_comparisons": 5040 * 120}

    def test_one_marking_has_no_walls(self):
        counters: dict = {}
        res = compare_up_to_symmetry(datum(1, 1), datum(1, "1/2"),
                                     counters=counters)
        assert res == OrderResult("Equal", (1,))
        assert counters == {"permutations": 1, "subset_comparisons": 0}


# Few denominators, so that repeated entries (pruning) and entries summing
# to exactly 1 (wall points, which count as Minus) are common. Entries come
# from a Random with a drawn seed, uniform over the pool: drawn by
# hypothesis element by element, most cases repeat the pool's first entry
# and are Equal. The pool is 1/6, 1/4, 1/3, 1/2, 2/3, 3/4, 5/6, 1.
ENTRY_POOL = sorted({Fraction(p, q) for q in (2, 3, 4, 6)
                     for p in range(1, q + 1)})


@st.composite
def oracle_case(draw):
    g = draw(st.integers(min_value=0, max_value=2))
    rnd = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    n = rnd.randint(4 if g == 0 else 1, 6)
    shape = rnd.choice(("free", "orbit", "heavy-light"))
    if shape == "heavy-light":
        # A few heavy entries against a uniform band: mostly Incomparable,
        # so the full scan and its counters are checked.
        heavy = rnd.randint(1, 2)
        pair = [rnd.sample([rnd.choice(ENTRY_POOL[-3:])] * heavy
                           + [rnd.choice(ENTRY_POOL[:2])] * (n - heavy), n),
                [rnd.choice(ENTRY_POOL[1:5])] * n]
    else:
        # Entries from one to three pool values each.
        pair = [rnd.choices(rnd.sample(ENTRY_POOL, rnd.randint(1, 3)), k=n)
                for _ in range(2)]
    if g == 0:
        # Genus 0 needs sum(a) > 2; raise entries to 1 in order until so.
        for entries in pair:
            for i in range(n):
                if sum(entries) > 2:
                    break
                entries[i] = Fraction(1)
    if shape == "orbit":
        # b in the orbit of a: Equal, often at a late witness.
        pair[1] = rnd.sample(pair[0], n)
    return WeightDatum(g, tuple(pair[0])), WeightDatum(g, tuple(pair[1]))


class TestReferenceCompare:
    @settings(max_examples=120, deadline=None)
    @given(oracle_case())
    def test_matches_definition(self, case):
        a, b = case
        counters: dict = {}
        res = compare_up_to_symmetry(a, b, counters)
        assert (res.relation, res.witness, counters) == reference_compare(a, b)


class TestCensus:
    @pytest.mark.parametrize("g,n,chambers,orbits", [
        (1, 2, 2, 2), (1, 3, 9, 5), (0, 3, 1, 1),
    ])
    def test_counts(self, g, n, chambers, orbits):
        census = enumerate_chambers(g, n)
        assert len(census.chambers) == chambers
        assert len(census.orbits) == orbits

    def test_orbit_sizes(self):
        census = enumerate_chambers(1, 3)
        assert sorted(len(o) for o in census.orbits) == [1, 1, 1, 3, 3]

    @pytest.mark.parametrize("g,n", [(0, 4), (1, 3), (1, 4), (2, 4)])
    def test_orbits_match_definition(self, g, n):
        census = enumerate_chambers(g, n)
        assert census.orbits == reference_orbits(census.chambers)

    def test_all_census_chambers_inhabited(self):
        census = enumerate_chambers(1, 3)
        assert len(set(census.chambers)) == 9
        for s in census.chambers:
            point = feasible_point(s)
            assert point is not None
            assert signature(point) == s


class TestFeasibility:
    def test_all_plus_inhabited(self):
        s = signature(datum(1, 1, 1, 1))
        assert is_feasible(s)
        point = feasible_point(s)
        assert signature(point) == s

    def test_genus_zero_all_pairs_minus_empty(self):
        ws = wall_set(0, 4)
        s = ChamberSignature(ws, (False,) * len(ws.subsets))
        assert not is_feasible(s)
        assert feasible_point(s) is None


class TestConstructors:
    def test_floor_two_is_classical(self):
        assert signature(make_floor(1, 3, 2)) == signature(datum(1, 1, 1, 1))

    def test_floor_n_is_F(self):
        assert signature(make_floor(1, 3, 3)) == signature(make_F(1, 3))

    def test_heavy_light_top_is_classical(self):
        assert signature(make_heavy_light(1, 4, 3)) == \
            signature(datum(1, 1, 1, 1, 1))

    def test_minimal_is_all_minus(self):
        assert not any(signature(make_minimal(1, 3)).signs)

    def test_F_pairs_below_total_above(self):
        sig = signature(make_F(1, 3))
        assert sig.signs == signature(datum(1, "1/2", "1/2", "1/2")).signs


@pytest.fixture(scope="module")
def representatives():
    census = enumerate_chambers(1, 3)
    return [(feasible_point(s), k)
            for k, orbit in enumerate(census.orbits) for s in orbit]


class TestPartialOrderAxioms:
    def test_reflexive_and_orbit_equality(self, representatives):
        for a, ka in representatives:
            for b, kb in representatives:
                res = compare_up_to_symmetry(a, b)
                assert _witness_valid(a, b, res)
                assert (res.relation == "Equal") == (ka == kb)

    def test_converse_relation(self, representatives):
        flip = {"Less": "Greater", "Greater": "Less",
                "Equal": "Equal", "Incomparable": "Incomparable"}
        for a, _ in representatives:
            for b, _ in representatives:
                fwd = compare_up_to_symmetry(a, b).relation
                assert compare_up_to_symmetry(b, a).relation == flip[fwd]

    def test_transitive(self, representatives):
        points = [a for a, _ in representatives]
        rel = {(i, j): compare_up_to_symmetry(points[i], points[j]).relation
               for i in range(len(points)) for j in range(len(points))}
        for i in range(len(points)):
            for j in range(len(points)):
                if rel[i, j] != "Less":
                    continue
                for k in range(len(points)):
                    if rel[j, k] == "Less":
                        assert rel[i, k] == "Less"


entry = st.fractions(min_value=Fraction(1, 20), max_value=1,
                     max_denominator=20)
weight_pair = st.integers(min_value=2, max_value=4).flatmap(
    lambda n: st.tuples(
        st.lists(entry, min_size=n, max_size=n),
        st.lists(entry, min_size=n, max_size=n),
    )
)


class TestRandomizedOrder:
    @settings(max_examples=100, deadline=None)
    @given(weight_pair)
    def test_witnesses_certify_relations(self, pair):
        a = WeightDatum(1, tuple(pair[0]))
        b = WeightDatum(1, tuple(pair[1]))
        res = compare_up_to_symmetry(a, b)
        assert _witness_valid(a, b, res)

    @settings(max_examples=60, deadline=None)
    @given(weight_pair)
    def test_self_comparison_is_equal(self, pair):
        a = WeightDatum(1, tuple(pair[0]))
        assert compare_up_to_symmetry(a, a).relation == "Equal"
