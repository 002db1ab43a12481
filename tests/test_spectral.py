"""Chamber-chain filtrations and their spectral sequences."""

import random
from fractions import Fraction

import pytest

from tropgc import (
    ChamberSignature,
    DomainError,
    WeightDatum,
    align_chain,
    build_filtered_complex,
    build_graph_complex,
    build_relative_complex,
    compare_up_to_symmetry,
    decomposition_report,
    enumerate_chambers,
    feasible_point,
    filtered_from_raw,
    format_rational,
    homology,
    infinity_table,
    make_heavy_light,
    make_minimal,
    page_dim,
    page_table,
    parse_filtration_json,
    spectral_json,
)
from tropgc.complexes import RELATIVE, restrict
from tropgc.enumeration import check_aligned

from .pages import e1_relative_check, einfinity_sums

EPS = Fraction(1, 100)
CLASSICAL3 = WeightDatum(1, (Fraction(1),) * 3)
FIVE_CHAMBER_RAW = [
    WeightDatum(1, (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3) - EPS)),
    WeightDatum(1, (Fraction(4, 9) - EPS,) * 3),
    WeightDatum(1, (Fraction(14, 27) - EPS, Fraction(12, 27),
                    Fraction(14, 27))),
    WeightDatum(1, (Fraction(99, 100), Fraction(12, 27), Fraction(14, 27))),
    CLASSICAL3,
]
FLOOR_G2_RAW = [
    make_minimal(2, 3),
    WeightDatum(2, (Fraction(7, 18),) * 3),
    WeightDatum(2, (Fraction(1),) * 3),
]
HEAVY_LIGHT_RAW = [make_heavy_light(1, 3, m) for m in (0, 1, 2)]
# (1,5): the lowest chamber, the floor chamber Plus iff |S| >= 4, and the
# heavy/light chamber with two heavy markings
G1N5_RAW = [make_minimal(1, 5), WeightDatum(1, (Fraction(3, 10),) * 5),
            make_heavy_light(1, 5, 2)]
EIGHTH = Fraction(1, 8)
# aligning it relabels the first datum
WITNESS_RAW = [WeightDatum(1, (EIGHTH, Fraction(1), EIGHTH, EIGHTH)),
               WeightDatum(1, (Fraction(1), EIGHTH, Fraction(1), EIGHTH))]


@pytest.fixture(scope="module")
def five_chamber():
    return filtered_from_raw(1, FIVE_CHAMBER_RAW)


@pytest.fixture(scope="module")
def floor_g2():
    return filtered_from_raw(2, FLOOR_G2_RAW)


class TestAlign:
    def test_five_chamber_chain_aligns(self):
        aligned, taus = align_chain(1, FIVE_CHAMBER_RAW)
        assert len(aligned) == 5
        assert taus[-1] == (1, 2, 3)
        assert [a.entries for a in aligned] == \
            [a.entries for a in FIVE_CHAMBER_RAW]

    def test_single_datum_unchanged(self):
        aligned, taus = align_chain(1, [CLASSICAL3])
        assert aligned == [CLASSICAL3]
        assert taus == [(1, 2, 3)]

    def test_reversed_chain_rejected(self):
        with pytest.raises(DomainError, match="Greater"):
            align_chain(1, [CLASSICAL3, make_minimal(1, 3)])

    def test_incomparable_chain_rejected(self):
        # one heavy marking (pair walls through it are Plus, the opposite
        # triple is Minus) vs the chamber with all triples Plus and no
        # Plus pair: neither Plus pattern embeds in the other
        heavy_one = WeightDatum(1, (Fraction(1),) + (Fraction(1, 8),) * 3)
        triples_only = WeightDatum(1, (Fraction(2, 5),) * 4)
        with pytest.raises(DomainError, match="Incomparable"):
            align_chain(1, [heavy_one, triples_only])

    def test_empty_chain_rejected(self):
        with pytest.raises(DomainError):
            align_chain(1, [])

    def test_empty_filtration_rejected(self):
        with pytest.raises(DomainError, match="empty weight chain"):
            build_filtered_complex(1, [])

    def test_genus_mismatch_rejected(self):
        with pytest.raises(DomainError):
            align_chain(2, [CLASSICAL3])

    def test_nontrivial_witness_composes(self):
        aligned, taus = align_chain(1, WITNESS_RAW)
        assert taus[0] == (1, 3, 2, 4)
        assert aligned[0].entries == (EIGHTH, EIGHTH, Fraction(1), EIGHTH)

    @pytest.mark.parametrize("g,raw", [
        (1, FIVE_CHAMBER_RAW), (2, FLOOR_G2_RAW), (1, HEAVY_LIGHT_RAW),
        (1, G1N5_RAW), (1, WITNESS_RAW)],
        ids=["five_chamber", "floor_g2", "heavy_light", "g1n5", "witness"])
    def test_aligned_chain_is_nested(self, g, raw):
        # align_chain leaves the nesting check to build_filtered_complex
        aligned, _ = align_chain(g, raw)
        check_aligned(aligned)


class TestFilteredComplex:
    def test_level_rows(self, five_chamber):
        assert five_chamber.num_levels == 5
        assert five_chamber.level_row(-1) == (1,)
        assert sorted(five_chamber.level_row(0)) == [2, 3, 4, 5]
        assert sorted(five_chamber.level_row(1)) == [1, 3, 4, 5]
        assert five_chamber.level_row(2) == ()

    def test_base_is_top_chamber_complex(self, five_chamber):
        top = build_graph_complex(1, CLASSICAL3)
        assert five_chamber.base.degrees == top.degrees
        assert [five_chamber.base.dim(k) for k in top.degrees] == \
            [top.dim(k) for k in top.degrees]


class TestPageDim:
    def test_final_page_survivor(self, five_chamber):
        assert page_dim(five_chamber, 5, 1, 0) == 1

    def test_final_page_low_degrees_vanish(self, five_chamber):
        for p in range(1, 6):
            for total in (-1, 0):
                assert page_dim(five_chamber, 5, p, total - p) == 0

    def test_page_collapse_between_one_and_five(self, five_chamber):
        assert page_dim(five_chamber, 1, 2, -2) == 1
        assert page_dim(five_chamber, 5, 2, -2) == 0

    def test_vanishes_outside_level_range(self, five_chamber):
        assert page_dim(five_chamber, 1, 0, 1) == 0
        assert page_dim(five_chamber, 1, 6, -5) == 0

    def test_page_zero_is_associated_graded(self, five_chamber):
        for k in five_chamber.base.degrees:
            row = five_chamber.level_row(k)
            for p in range(1, 6):
                graded = sum(1 for lev in row if lev == p)
                assert page_dim(five_chamber, 0, p, k - p) == graded

    def test_negative_page_rejected(self, five_chamber):
        with pytest.raises(DomainError):
            page_dim(five_chamber, -1, 1, 0)


class TestPageTables:
    def test_five_chamber_final_page(self, five_chamber):
        table = page_table(five_chamber, 5)
        assert table.nonzero() == {(1, 0): 1}

    def test_infinity_table(self, five_chamber):
        table = infinity_table(five_chamber)
        assert table.nonzero() == {(1, 0): 1}

    def test_single_step_infinity_equals_homology(self):
        f = filtered_from_raw(1, [CLASSICAL3])
        betti = homology(build_graph_complex(1, CLASSICAL3)).betti
        table = infinity_table(f)
        for k, v in betti.items():
            assert table.dims.get((1, k - 1), 0) == v

    def test_floor_filtration_genus_two(self, floor_g2):
        # The six-class element is a genuine cycle on page 2 but its
        # boundary is a nonzero multiple of a five-edge class, so it dies
        # against the absolute-cycle condition on page 3.
        assert page_dim(floor_g2, 2, 3, -1) == 3
        assert page_dim(floor_g2, 3, 3, -1) == 0


class TestInfinityIsPageN:
    @pytest.mark.parametrize("name", ["five_chamber", "g1n5", "floor_g2"])
    def test_pages_from_n_on_are_infinity(self, name, request):
        # a boundary never raises the level, so every pair has
        # 1 <= l <= c <= N and d_r = 0 for r >= N
        f = (filtered_from_raw(1, G1N5_RAW) if name == "g1n5"
             else request.getfixturevalue(name))
        n = f.num_levels
        assert n == len(f.chain) > 1
        assert all(1 <= l <= c <= n
                   for pairs in f.pairs.values() for c, l in pairs)
        einf = infinity_table(f).dims
        for r in (n, n + 1, n + 2):
            assert page_table(f, r).dims == einf


class TestDecomposition:
    def test_five_chamber_report(self, five_chamber):
        report = decomposition_report(five_chamber)
        assert report.ok
        assert einfinity_sums(report) == report.betti == {-1: 0, 0: 0, 1: 1}
        assert [row["dim"] for row in report.topweight] == [1, 0, 0]
        assert [row["degree"] for row in report.topweight] == [3, 4, 5]
        assert len(report.lower_bounds) == 1
        assert report.lower_bounds[0]["label"] == \
            "dim H^3(M_{1,3};Q) >= 1"

    def test_heavy_light_same_sums(self):
        five = decomposition_report(filtered_from_raw(1, FIVE_CHAMBER_RAW))
        hl = decomposition_report(filtered_from_raw(1, HEAVY_LIGHT_RAW))
        assert (einfinity_sums(five) == einfinity_sums(hl)
                == {-1: 0, 0: 0, 1: 1})

    def test_floor_filtration_genus_two_report(self, floor_g2):
        report = decomposition_report(floor_g2)
        assert report.ok
        assert report.lower_bounds == []
        assert (einfinity_sums(report) == report.betti
                == dict.fromkeys(floor_g2.base.degrees, 0))


class TestE1RelativeCheck:
    @pytest.mark.parametrize("chain", ["five_chamber", "floor_g2"])
    def test_level_slices_are_step_complexes(self, chain, request):
        # the level-p slice of the base is the graph complex of the first
        # datum at p = 1, and the complex relative to the datum before at
        # p >= 2, basis by basis and boundary by boundary
        f = request.getfixturevalue(chain)
        g, aligned = f.base.g, f.chain
        for p in range(1, f.num_levels + 1):
            step = restrict(f.base, [[lev == p for lev in row]
                                     for row in f.levels], RELATIVE)
            if p == 1:
                want = build_graph_complex(g, aligned[0])
            else:
                want = build_relative_complex(g, aligned[p - 1],
                                              aligned[p - 2])
            assert step.degrees == want.degrees
            assert step.bases == want.bases, p
            assert step.boundaries == want.boundaries, p

    def test_five_chamber(self, five_chamber):
        assert e1_relative_check(five_chamber)

    def test_single_step(self):
        assert e1_relative_check(filtered_from_raw(1, [CLASSICAL3]))

    def test_heavy_light(self):
        assert e1_relative_check(filtered_from_raw(1, HEAVY_LIGHT_RAW))


def elementary_crossings(g, n):
    """(S, a-, a+, A_S) for every elementary wall crossing up from a census
    orbit representative of (g, n): for orbit[0] and each of its Minus walls
    S whose flip to Plus leaves a monotone, feasible signature, a- is
    feasible_point(orbit[0]), a+ the feasible point of the flipped
    signature, and A_S a+'s entries off S followed by one entry 1."""
    for orbit in enumerate_chambers(g, n).orbits:
        rep = orbit[0]
        ws = rep.wall_set
        lower = feasible_point(rep)
        for k, (wall, plus) in enumerate(zip(ws.subsets, rep.signs)):
            if plus:
                continue
            try:
                flipped = ChamberSignature(
                    ws, rep.signs[:k] + (True,) + rep.signs[k + 1:])
            except ValueError:
                continue  # not monotone
            upper = feasible_point(flipped)
            if upper is None:
                continue
            merged = tuple(x for i, x in enumerate(upper.entries, 1)
                           if i not in wall) + (Fraction(1),)
            yield wall, lower, upper, merged


def shifted_down(values):
    """A degree-keyed dict moved down one degree."""
    return {k - 1: v for k, v in values.items()}


def nonzero(values):
    return {k: v for k, v in values.items() if v}


class TestWallCrossing:
    """The relative complex of one elementary crossing is the graph complex
    of the merged datum A_S one degree lower: its Betti numbers and its
    generators per degree, each shifted up one."""

    # crossings per case, computed by this program
    CROSSINGS = {(0, 4): 9, (1, 3): 7, (1, 4): 44, (2, 3): 7, (0, 5): 131}

    @pytest.mark.parametrize("g,n", sorted(CROSSINGS))
    def test_relative_complex_is_the_merged_complex(self, g, n):
        count = 0
        for wall, lower, upper, merged in elementary_crossings(g, n):
            # A_S is always a datum here: at g = 0 the complement of S is a
            # wall Plus at both data, else a- would sum to at most 2
            a_s = WeightDatum(g, merged)
            relative = homology(build_relative_complex(g, upper, lower))
            want = homology(build_graph_complex(g, a_s))
            where = (sorted(wall), str(lower), str(upper))
            assert nonzero(shifted_down(relative.betti)) == \
                nonzero(want.betti), where
            assert nonzero(shifted_down(relative.dims)) == \
                nonzero(want.dims), where
            count += 1
        assert count == self.CROSSINGS[(g, n)]


class TestRandomChains:
    def test_random_chains_from_census(self):
        census = enumerate_chambers(1, 3)
        points = [feasible_point(s) for s in census.chambers]
        below = {i: [j for j in range(len(points))
                     if compare_up_to_symmetry(points[j],
                                               points[i]).relation
                     in ("Less", "Equal")]
                 for i in range(len(points))}
        rng = random.Random(2026)
        chains_checked = 0
        while chains_checked < 8:
            top = rng.randrange(len(points))
            chain = [points[top]]
            cur = top
            for _ in range(rng.randint(1, 3)):
                options = below[cur]
                cur = rng.choice(options)
                chain.append(points[cur])
            raw = list(reversed(chain))
            f = filtered_from_raw(1, raw)
            assert decomposition_report(f).ok
            assert e1_relative_check(f)
            chains_checked += 1


class TestJson:
    def test_filtration_round_trip(self):
        payload = {"g": 1, "weights": [[format_rational(x) for x in a.entries]
                                       for a in FIVE_CHAMBER_RAW]}
        g, data = parse_filtration_json(payload)
        assert g == 1
        assert [a.entries for a in data] == \
            [a.entries for a in FIVE_CHAMBER_RAW]

    @pytest.mark.parametrize("payload", [
        {}, {"g": 1}, {"weights": [["1"]]}, {"g": 1, "weights": []},
        {"g": 1, "weights": "x"}, {"g": "x", "weights": [["1"]]},
        {"g": 1, "weights": [["1.5", "1", "1"]]},
        {"g": 1, "weights": ["111"]}, {"g": 1.7, "weights": [["1", "1"]]},
        {"g": True, "weights": [["1", "1"]]}, {"g": "1", "weights": [["1"]]},
        [], "x",
    ])
    def test_malformed_payloads(self, payload):
        with pytest.raises(ValueError):
            parse_filtration_json(payload)

    def test_out_of_domain_weights(self):
        with pytest.raises(DomainError):
            parse_filtration_json({"g": 1, "weights": [["2", "1", "1"]]})

    def test_spectral_json_shape(self, five_chamber):
        payload = spectral_json(five_chamber, pages=(5,))
        assert payload["einfinity"] == {"1,0": 1}
        assert payload["pages"] == {"5": {"1,0": 1}}
        assert payload["betti"] == {"-1": 0, "0": 0, "1": 1}
        assert payload["decomposition_ok"] is True
        assert payload["lower_bounds"][0]["cohomological_degree"] == 3
