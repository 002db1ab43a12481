"""Weight data, walls, chamber signatures, and the symmetrized order."""

import hashlib
import math
import random
import warnings
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
from tropgc import chambers

from .oracles import (reference_census, reference_compare,
                      reference_feasible_point, reference_orbits)

EPS = Fraction(1, 100)


def datum(g: int, *entries) -> WeightDatum:
    return WeightDatum(g, tuple(Fraction(e) for e in entries))


class TestRationalParsing:
    def test_round_trip(self):
        for text in ("1/3", "7", "33/100", "1"):
            assert format_rational(parse_rational(text)) == text

    def test_normalization(self):
        assert parse_rational("2/4") == Fraction(1, 2)

    # \d would take non-ASCII digits, which Fraction reads as numbers
    @pytest.mark.parametrize("bad", ["", "1/0", "1.5", "a", "1 /2", "--3",
                                     "\uff11", "\u0661/2", "\uff11/3"])
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

    @pytest.mark.parametrize("g,entries", [
        (1, (0.1, 0.9)),
        (1, (Fraction(1, 2), 0.5)),
        (1.5, (Fraction(1),)),
        (1.0, (Fraction(1),)),
        (True, (Fraction(1),)),
        ("1", (Fraction(1),)),
        (1, (1, "1/2")),
        (1, (" 1e-1 ", Fraction(1))),
    ])
    def test_inexact_types_rejected(self, g, entries):
        # as floats 0.1 + 0.9 exceeds 1, but exactly it lies on the wall
        with pytest.raises(TypeError):
            WeightDatum(g, entries)

    @pytest.mark.parametrize("entries", [
        (True, True),
        (Fraction(1, 2), False),
    ])
    def test_bool_entries_rejected(self, entries):
        # bool is an int subclass, so True would be read as the weight 1
        with pytest.raises(TypeError, match="not an exact rational"):
            WeightDatum(1, entries)

    def test_exact_types_accepted(self):
        assert WeightDatum(1, (1, Fraction(1, 2), Fraction(1, 3))).entries == (
            Fraction(1), Fraction(1, 2), Fraction(1, 3))

    @pytest.mark.parametrize("make", [list, lambda xs: (x for x in xs)],
                             ids=["list", "generator"])
    def test_entries_read_once(self, make):
        # the type check must not use up a generator before it is stored
        assert WeightDatum(1, make([1, 1])).entries == (Fraction(1),) * 2


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

    @pytest.mark.parametrize("g,n", [(0, 5), (1, 4), (2, 3)])
    def test_masks_are_subset_bits(self, g, n):
        ws = wall_set(g, n)
        assert len(ws.masks) == len(ws.subsets)
        for mask, s in zip(ws.masks, ws.subsets):
            assert {i for i in range(1, n + 1) if mask >> (i - 1) & 1} == s


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

    @pytest.mark.parametrize("g,n", [(1, 3), (2, 3), (0, 4), (1, 4)])
    def test_accepts_exactly_monotone_patterns(self, g, n):
        ws = wall_set(g, n)
        w = len(ws.subsets)
        for bits in range(1 << w):
            signs = tuple(bool(bits >> k & 1) for k in range(w))
            monotone = not any(
                signs[i] and not signs[j] and s < t
                for i, s in enumerate(ws.subsets)
                for j, t in enumerate(ws.subsets))
            try:
                ChamberSignature(ws, signs)
            except ValueError:
                assert not monotone, signs
            else:
                assert monotone, signs


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


def _heavy_pair(n: int, heavy: tuple[int, int]) -> WeightDatum:
    """n distinct entries, heavy at the two given positions: Plus on S iff S
    holds both heavy entries (0.8456 + 7 * 0.0210 < 1)."""
    lights = iter(Fraction(150 + 10 * i, 10_000) for i in range(n - 2))
    heavies = iter((Fraction(8123, 10_000), Fraction(8456, 10_000)))
    return WeightDatum(1, tuple(next(heavies) if i in heavy else next(lights)
                                for i in range(1, n + 1)))


class TestPackedCells:
    """compare_up_to_symmetry at n = 8, the last one-byte cells (mask 255 is
    the full set, a wall for g >= 1), n = 9, two-byte cells, and n = 17,
    four-byte cells. The oracle walks all n! permutations, so the counters
    are pinned instead: an Equal pair with distinct entries scans
    lexicographic rank + 1 permutations."""

    @pytest.mark.parametrize("n,a_heavy,b_heavy,witness,rank", [
        # heavy entries moved from positions 1, 2 to 4, 8: the first witness
        # fixes sigma(4) = 1, sigma(8) = 2 and lists the rest in order.
        # rank = 2*7! + 2*6! + 2*5! + 3! + 2! + 1! = 11769.
        (8, (1, 2), (4, 8), (3, 4, 5, 1, 6, 7, 8, 2), 11769),
        # from positions 8, 9 to 5, 9: rank = 3*4! = 72.
        (9, (8, 9), (5, 9), (1, 2, 3, 4, 8, 5, 6, 7, 9), 72),
    ])
    def test_equal_at_rank(self, n, a_heavy, b_heavy, witness, rank):
        a, b = _heavy_pair(n, a_heavy), _heavy_pair(n, b_heavy)
        counters: dict = {}
        res = compare_up_to_symmetry(a, b, counters)
        assert res == OrderResult("Equal", witness)
        assert counters == {"permutations": rank + 1,
                            "subset_comparisons": (rank + 1) * (2**n - 1 - n)}
        moved = signature(apply_permutation(res.witness, a))
        assert compare_signatures(moved, signature(b)).relation == "Equal"

    def test_four_byte_cells(self):
        # heavy entries moved from positions 16, 17 to 14, 17: the first
        # witness fixes sigma(14) = 16, sigma(17) = 17, rank = 2*3! = 12.
        # 2^17 - 18 = 131054 walls; the witness is checked wall by wall on
        # the subset sums, as signature() checks monotonicity in quadratic
        # time.
        n = 17
        a, b = _heavy_pair(n, (16, 17)), _heavy_pair(n, (14, 17))
        counters: dict = {}
        res = compare_up_to_symmetry(a, b, counters)
        assert res == OrderResult("Equal", (*range(1, 14), 16, 14, 15, 17))
        masks = wall_set(1, n).masks
        assert len(masks) == 131054
        assert counters == {"permutations": 13,
                            "subset_comparisons": 13 * 131054}
        (sums_a, den_a), (sums_b, den_b) = a.subset_sums, b.subset_sums
        bits = [1 << (s - 1) for s in res.witness]
        for m in masks:
            image = sum(bit for i, bit in enumerate(bits) if m >> i & 1)
            assert (sums_a[image] > den_a) == (sums_b[m] > den_b)

    def test_nine_markings_two_tie_classes_incomparable(self):
        # a: Plus iff S holds both heavy entries (0.85 + 7 * 0.02 < 1);
        # b: Plus iff |S| >= 4 (3 * 0.26 < 1 < 4 * 0.26). Only the
        # 9! / (2! 7!) = 36 placements of the heavy pair are evaluated.
        a = datum(1, *["85/100"] * 2, *["2/100"] * 7)
        b = datum(1, *["26/100"] * 9)
        counters: dict = {}
        res = compare_up_to_symmetry(a, b, counters)
        assert res == OrderResult("Incomparable", None)
        assert counters == {"permutations": 36,
                            "subset_comparisons": 36 * 502}


# Few denominators, so that repeated entries (pruning) and entries summing
# to exactly 1 (wall points, which count as Minus) are common. Entries come
# from a Random with a drawn seed, uniform over the pool: drawn by
# hypothesis element by element, most cases repeat the pool's first entry
# and are Equal. The pool is 1/6, 1/4, 1/3, 1/2, 2/3, 3/4, 5/6, 1.
ENTRY_POOL = sorted({Fraction(p, q) for q in (2, 3, 4, 6)
                     for p in range(1, q + 1)})


def lift_genus_zero(entries: list) -> None:
    """Genus 0 needs sum(a) > 2: raise entries to 1 in order until so."""
    for i in range(len(entries)):
        if sum(entries) > 2:
            break
        entries[i] = Fraction(1)


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
        for entries in pair:
            lift_genus_zero(entries)
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
    # (0,5) and (1,5) are computed by this program; the old and new census
    # agree on them.
    @pytest.mark.parametrize("g,n,chambers,orbits", [
        (1, 2, 2, 2), (1, 3, 9, 5), (0, 3, 1, 1),
        (0, 5, 1087, 36), (1, 5, 2690, 92),
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

    @pytest.mark.parametrize("g,n", [
        (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4),
    ])
    def test_matches_reference_census(self, g, n):
        # orbits, their order and the order within each orbit
        assert enumerate_chambers(g, n) == reference_census(g, n)

    @pytest.mark.parametrize("g,n", [(0, 4), (1, 3), (1, 4), (2, 4), (0, 5)])
    def test_orbit_size_from_tie_classes(self, g, n):
        for orbit in enumerate_chambers(g, n).orbits:
            sig = orbit[0]
            # classes of markings whose swap fixes the signature
            classes: list[list[int]] = []
            for i in range(1, n + 1):
                for cls in classes:
                    swap = list(range(1, n + 1))
                    swap[i - 1], swap[cls[0] - 1] = cls[0], i
                    if permute_signature(swap, sig) == sig:
                        cls.append(i)
                        break
                else:
                    classes.append([i])
            size = math.factorial(n)
            for cls in classes:
                size //= math.factorial(len(cls))
            assert len(orbit) == size
            assert len(set(orbit)) == size

    def test_all_census_chambers_inhabited(self):
        for g, n, chambers in ((1, 3, 9), (0, 4, 27), (1, 4, 96)):
            census = enumerate_chambers(g, n)
            assert len(set(census.chambers)) == chambers
            for s in census.chambers:
                point = feasible_point(s)
                assert point is not None
                assert signature(point) == s

    def test_orbit_member_check_fires(self, monkeypatch):
        # the member for sigma = (2,1,3) is checked against signs with its
        # first wall flipped; the all-Minus orbit has that member, since
        # the flip also makes markings 1 and 2 look untied
        permuted = chambers._permuted_signs

        def one_member_misses(sigma, sig):
            signs = permuted(sigma, sig)
            if tuple(sigma) == (2, 1, 3):
                signs = (not signs[0],) + signs[1:]
            return signs

        monkeypatch.setattr(chambers, "_permuted_signs", one_member_misses)
        with pytest.raises(AssertionError,
                           match="^orbit member misses its permuted witness$"):
            enumerate_chambers(1, 3)

    def test_witness_check_fires(self):
        # constraints of a neighbouring chamber give a witness of that
        # chamber, which fails the signature it is returned for
        s = signature(datum(1, "1/4", "1/4", "1/2", "1/2"))
        flipped = ChamberSignature(s.wall_set, tuple(
            sign or sub == {3, 4} for sub, sign in zip(s.wall_set.subsets,
                                                        s.signs)))
        assert flipped != s and feasible_point(flipped) is not None
        with pytest.raises(AssertionError,
                           match="^feasibility witness fails its own "
                                 "signature$"):
            chambers._solve(s, chambers._signature_constraints(flipped))


def feasible_point_lines():
    """One line per feasible_point result, None included: every chamber of
    (0,5), (1,4), (1,5) and (2,4), then each orbit representative with one
    wall flipped, where that pattern is still monotone."""
    for g, n in ((0, 5), (1, 4), (1, 5), (2, 4)):
        census = enumerate_chambers(g, n)
        sigs = list(census.chambers)
        for orbit in census.orbits:
            rep = orbit[0]
            for k in range(len(rep.signs)):
                signs = list(rep.signs)
                signs[k] = not signs[k]
                try:
                    sigs.append(ChamberSignature(rep.wall_set, tuple(signs)))
                except ValueError:
                    pass
        for s in sigs:
            point = feasible_point(s)
            yield f"{g} {n} " + ("None" if point is None else ",".join(
                map(format_rational, point.entries)))


def test_feasible_points_pinned():
    # computed by this program, before the simplex tableau was condensed
    lines = list(feasible_point_lines())
    assert len(lines) == 5423
    assert sum(line.endswith(" None") for line in lines) == 306
    text = "".join(line + "\n" for line in lines)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "00d878b153548514120e32db1047266074af344b3f348aac400ad7d1135f6607")


@st.composite
def monotone_pattern(draw):
    """An inclusion-monotone sign pattern for g in {0, 1, 2} and n <= 5:
    the signature of a datum with entries from ENTRY_POOL (so wall points
    are common), that signature with one wall flipped (Plus on it and its
    supersets, or Minus on it and its subsets), or the Plus walls above two
    or three random pairs (empty when two of the pairs are disjoint: the
    third pair leaves another matching of their four markings all Minus,
    and the two matchings bound the same sum). Larger n, which has more
    walls, is drawn more often."""
    g = draw(st.integers(min_value=0, max_value=2))
    rnd = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    n = max(rnd.randint(3 if g == 0 else 1, 5) for _ in range(2))
    entries = rnd.choices(ENTRY_POOL, k=n)
    if g == 0:
        lift_genus_zero(entries)
    ws = wall_set(g, n)
    subs = ws.subsets
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DomainGapWarning)
        a = WeightDatum(g, tuple(entries))
    plus = {k for k, sign in enumerate(signature(a).signs) if sign}
    shape = rnd.choice(("datum", "flip", "random"))
    if shape == "flip" and subs:
        k = rnd.randrange(len(subs))
        if k in plus:
            plus -= {t for t, s in enumerate(subs) if s <= subs[k]}
        else:
            plus |= {t for t, s in enumerate(subs) if s >= subs[k]}
    elif shape == "random":
        pairs = subs[:n * (n - 1) // 2]
        low = rnd.sample(pairs, min(len(pairs), rnd.randint(2, 3)))
        plus = {t for t, s in enumerate(subs) if any(s >= w for w in low)}
    return ChamberSignature(ws, tuple(t in plus for t in range(len(subs))))


class TestFeasibility:
    def test_all_plus_inhabited(self):
        s = signature(datum(1, 1, 1, 1))
        assert is_feasible(s)
        point = feasible_point(s)
        assert signature(point) == s

    def test_genus_zero_all_pairs_minus_empty(self):
        # all walls Minus; at n = 6 each marking lies in 10 of the 15 walls
        # of size 4, so 10 * sum(a) < 15, and sum(a) > 2 fails
        for n in (4, 6):
            ws = wall_set(0, n)
            s = ChamberSignature(ws, (False,) * len(ws.subsets))
            assert not is_feasible(s)
            assert feasible_point(s) is None

    @settings(max_examples=150, deadline=None)
    @given(monotone_pattern())
    def test_matches_fourier_motzkin(self, s):
        point = feasible_point(s)
        assert (point is None) == (reference_feasible_point(s) is None)
        if point is not None:
            assert signature(point) == s

    @pytest.mark.parametrize("g,n", [(0, 6), (1, 6), (0, 7), (1, 7)])
    def test_many_markings(self, g, n):
        # too large for the Fourier-Motzkin oracle, so each witness is
        # checked by its signature; small denominators put some data on walls
        rnd = random.Random(f"{g},{n}")
        for _ in range(4):
            entries = [Fraction(rnd.randint(1, q), q)
                       for q in (rnd.randint(2, 12) for _ in range(n))]
            if g == 0:
                lift_genus_zero(entries)
            s = signature(WeightDatum(g, tuple(entries)))
            point = feasible_point(s)
            assert point is not None
            assert signature(point) == s


class TestConstructors:
    def test_floor_two_is_classical(self):
        assert signature(make_floor(1, 3, 2)) == signature(datum(1, 1, 1, 1))

    def test_floor_n_is_F(self):
        # F is the chamber whose only Plus wall is the full set
        for g, n in [(1, 2), (1, 3), (2, 5), (4, 8)]:
            subsets = wall_set(g, n).subsets
            assert signature(make_floor(g, n, n)).signs == tuple(
                len(s) == n for s in subsets)

    def test_heavy_light_top_is_classical(self):
        assert signature(make_heavy_light(1, 4, 3)) == \
            signature(datum(1, 1, 1, 1, 1))

    def test_minimal_is_all_minus(self):
        assert not any(signature(make_minimal(1, 3)).signs)

    def test_heavy_light_needs_a_marking(self):
        with pytest.raises(DomainError, match="need n >= 1"):
            make_heavy_light(1, 0, 0)

    @pytest.mark.parametrize("g,n", [(1, 1), (1, 3), (2, 4), (3, 6)])
    def test_minimal_is_heavy_light_without_heavy(self, g, n):
        assert make_minimal(g, n) == make_heavy_light(g, n, 0)

    def test_F_pairs_below_total_above(self):
        sig = signature(make_floor(1, 3, 3))
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
