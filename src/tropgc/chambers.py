"""Weight data and the fine chamber decomposition.

A weight datum is a genus g together with rational weights a_1..a_n, each in
(0, 1], with 2g - 2 + sum(a) > 0. The weight space is cut into chambers by
the walls sum_{i in S} a_i = 1 over index subsets S with 2 <= |S| <= n (for
g >= 1) or 2 <= |S| <= n - 2 (for g = 0). This module computes chamber
signatures, the partial order on chambers and on chambers up to the S_n
action, enumerates realizable chambers for small n, and builds the standard
named weight data (minimal, floor, heavy/light).

Convention: weights lying exactly on a wall are assigned the Minus side,
since stability for such data agrees with the adjacent lower chamber.
Permutations are written in one-line notation (sigma[i-1] = sigma(i), values
1..n) and act by apply_permutation(sigma, A)_i = A_{sigma(i)}.

Walls are bit masks over positions 1..n, and permuted signatures are read
off the image masks sigma(S) (_permuted_signs). compare_up_to_symmetry packs
the image masks of all walls into one integer, one byte per wall for
n <= 8, so a permutation costs one OR and one bytes.translate through a
sign table (wider cells for n >= 9 are read through memoryview.cast).
"""

from __future__ import annotations

import itertools
import re
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import le
from typing import Iterable, Optional, Sequence


class DomainError(ValueError):
    """Input is outside the mathematical domain of the operation."""


class DomainGapWarning(UserWarning):
    """Weight datum has 0 < 2g - 2 + sum(a) <= 1, a contested boundary zone."""


_RATIONAL_RE = re.compile(r"^-?[0-9]+(?:/[1-9][0-9]*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" with decimal integers and q > 0."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"invalid rational literal: {text!r}")
    return Fraction(s)


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


def parse_weights(text: str) -> tuple[Fraction, ...]:
    """Parse a comma-separated list of rational literals."""
    parts = text.split(",")
    if parts == [""]:
        raise ValueError("empty weight list")
    return tuple(parse_rational(p) for p in parts)


@dataclass(frozen=True)
class WeightDatum:
    """Genus plus a vector of rational weights in (0, 1]."""

    g: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if not isinstance(self.g, int) or isinstance(self.g, bool):
            raise TypeError(f"genus must be an int: {self.g!r}")
        entries = tuple(self.entries)
        for x in entries:
            # a float is a binary approximation: 0.1 + 0.9 > 1 as Fractions
            if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
                raise TypeError(f"not an exact rational: {x!r}")
        object.__setattr__(self, "entries", tuple(map(Fraction, entries)))
        if self.g < 0:
            raise DomainError("genus must be nonnegative")
        if len(self.entries) < 1:
            raise DomainError("at least one weight is required")
        for a in self.entries:
            if not (0 < a <= 1):
                raise DomainError(f"weight {format_rational(a)} outside (0, 1]")
        total = 2 * self.g - 2 + sum(self.entries)
        if total <= 0:
            raise DomainError("2g - 2 + sum(a) must be positive")
        if total <= 1:
            warnings.warn(
                "weight datum has 0 < 2g - 2 + sum(a) <= 1; accepted, but "
                "some sources require the sum to exceed 1",
                DomainGapWarning, stacklevel=2)

    @property
    def n(self) -> int:
        return len(self.entries)

    @cached_property
    def subset_sums(self) -> tuple[list[int], int]:
        """(sums, den) of _subset_sums(entries), computed once per datum for
        signature, stability and chamber comparison; not to be modified."""
        return _subset_sums(self.entries)

    def __str__(self):
        return f"g={self.g}, ({', '.join(format_rational(a) for a in self.entries)})"


@dataclass(frozen=True)
class WallSet:
    """All wall subsets for (g, n), ordered by size then lexicographically;
    masks[k] is the bit mask of subsets[k], bit i - 1 for position i."""

    g: int
    n: int
    subsets: tuple[frozenset[int], ...]

    @cached_property
    def masks(self) -> tuple[int, ...]:
        return tuple(sum(1 << (i - 1) for i in s) for s in self.subsets)


@lru_cache(maxsize=None)
def wall_set(g: int, n: int) -> WallSet:
    if g < 0 or n < 1:
        raise DomainError("need g >= 0 and n >= 1")
    max_size = n - (2 if g == 0 else 0)
    subsets = []
    for size in range(2, max_size + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            subsets.append(frozenset(combo))
    return WallSet(g, n, tuple(subsets))


@dataclass(frozen=True)
class ChamberSignature:
    """Plus/Minus pattern of every wall inequality sum_{i in S} a_i > 1."""

    wall_set: WallSet
    signs: tuple[bool, ...]  # True = Plus, aligned with wall_set.subsets

    def __post_init__(self):
        if len(self.signs) != len(self.wall_set.subsets):
            raise ValueError("sign count does not match wall count")
        ws = self.wall_set
        minus = [(t, sup) for t, sup, plus
                 in zip(ws.masks, ws.subsets, self.signs) if not plus]
        for m, s, plus in zip(ws.masks, ws.subsets, self.signs):
            if plus:
                for t, sup in minus:
                    if m & t == m:
                        raise ValueError(
                            f"signature not monotone: {format_subset(s)} is "
                            f"Plus but superset {format_subset(sup)} is Minus")


def _subset_sums(entries: Sequence[Fraction]) -> tuple[list[int], int]:
    """(sums, den) with sums[mask] / den the sum of entries over the bits of
    mask, den the least common denominator of the entries."""
    den = lcm(*(x.denominator for x in entries))
    return _mask_sums([x.numerator * (den // x.denominator)
                       for x in entries]), den


def _mask_sums(nums: Sequence[int]) -> list[int]:
    """sums[mask] = the sum of nums over the bits of mask."""
    sums = [0] * (1 << len(nums))
    for mask in range(1, len(sums)):
        low = mask & (-mask)
        sums[mask] = sums[mask ^ low] + nums[low.bit_length() - 1]
    return sums


def signature(a: WeightDatum) -> ChamberSignature:
    """Chamber signature of a weight datum; wall points count as Minus."""
    ws = wall_set(a.g, a.n)
    sums, den = a.subset_sums
    signs = tuple(sums[mask] > den for mask in ws.masks)
    return ChamberSignature(ws, signs)


@dataclass(frozen=True)
class OrderResult:
    """Outcome of a chamber comparison; witness present unless Incomparable."""

    relation: str  # Equal | Less | Greater | Incomparable
    witness: Optional[tuple[int, ...]]

    def __post_init__(self):
        if self.relation not in ("Equal", "Less", "Greater", "Incomparable"):
            raise ValueError(f"unknown relation {self.relation!r}")
        if (self.witness is None) != (self.relation == "Incomparable"):
            raise ValueError("witness must be present exactly for "
                             "Equal/Less/Greater results")


def identity_permutation(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def _check_permutation(sigma: Sequence[int], n: int) -> tuple[int, ...]:
    s = tuple(sigma)
    if sorted(s) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {sigma!r}")
    return s


def apply_permutation(sigma: Sequence[int], a: WeightDatum) -> WeightDatum:
    """Entry i of the result is a_{sigma(i)}."""
    s = _check_permutation(sigma, a.n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DomainGapWarning)
        return WeightDatum(a.g, tuple(a.entries[s[i] - 1] for i in range(a.n)))


def _permuted_signs(sigma: Sequence[int], sig: ChamberSignature
                    ) -> tuple[bool, ...]:
    """The signs of sigma . sig, for a valid sigma: at each wall S, the sign
    of sig at sigma(S). image[mask] = sigma(mask) is built one position at
    a time."""
    masks = sig.wall_set.masks
    sign_at = dict(zip(masks, sig.signs))
    image = [0]
    for i in sigma:
        bit = 1 << (i - 1)
        image += [t | bit for t in image]
    return tuple([sign_at[image[m]] for m in masks])


def permute_signature(sigma: Sequence[int], sig: ChamberSignature) -> ChamberSignature:
    """Signature of the permuted datum: new sign at S = old sign at sigma(S)."""
    s = _check_permutation(sigma, sig.wall_set.n)
    return ChamberSignature(sig.wall_set, _permuted_signs(s, sig))


def compare_signatures(s1: ChamberSignature, s2: ChamberSignature) -> OrderResult:
    """Order two signatures on the same wall set; witness is the identity."""
    if s1.wall_set != s2.wall_set:
        raise DomainError("signatures live on different wall sets")
    above = below = False
    for x, y in zip(s1.signs, s2.signs):
        if x != y:
            if x:
                above = True
            else:
                below = True
    ident = identity_permutation(s1.wall_set.n)
    if not above and not below:
        return OrderResult("Equal", ident)
    if not above:
        return OrderResult("Less", ident)
    if not below:
        return OrderResult("Greater", ident)
    return OrderResult("Incomparable", None)


def _sign_table(a: WeightDatum) -> bytes:
    """table[mask] = 1 iff the subset sum over mask exceeds 1, padded with
    zeros to at least 256 bytes, the length bytes.translate needs."""
    sums, den = a.subset_sums
    return bytes(s > den for s in sums).ljust(256, b"\0")


def _split_permutations(ids: Sequence[int], k: int):
    """Every permutation of 1..n, n = len(ids), that lists positions with
    equal ids in increasing order, in lexicographic order, as (prefix,
    suffix) pairs split after position k; one prefix tuple is shared by all
    of its suffixes. These are the lexicographically first permutation of
    each distinct rearrangement of entries with the given ids. With distinct
    ids that is every permutation, taken straight from itertools."""
    n = len(ids)
    if len(set(ids)) == n:
        positions = range(1, n + 1)
        for prefix in itertools.permutations(positions, k):
            rest = [i for i in positions if i not in prefix]
            for suffix in itertools.permutations(rest):
                yield prefix, suffix
        return
    for prefix in _ordered_arrangements(ids, (), k):
        for suffix in _ordered_arrangements(ids, prefix, n - k):
            yield prefix, suffix


def _ordered_arrangements(ids: Sequence[int], taken: tuple[int, ...],
                          count: int):
    """Sequences of count positions outside taken, in lexicographic order,
    in which no position comes before a free position with the same id and
    a smaller index."""
    if not count:
        yield ()
        return
    heads: dict[int, int] = {}
    for i in range(1, len(ids) + 1):
        if i not in taken:
            heads.setdefault(ids[i - 1], i)
    for i in sorted(heads.values()):
        for rest in _ordered_arrangements(ids, taken + (i,), count - 1):
            yield (i,) + rest


def compare_up_to_symmetry(a: WeightDatum, b: WeightDatum,
                           counters: Optional[dict] = None) -> OrderResult:
    """Compare the chambers of a and b up to the S_n relabeling action.

    Permutations are tried in lexicographic one-line order; the first sigma
    whose permuted signature is equal to, dominated by, or dominating the
    signature of b decides the result, with sigma as the witness. If no
    permutation relates the two signatures the chambers are Incomparable.

    Only the first permutation of each distinct weight tuple is evaluated
    (the signature depends only on the tuple): the one that places equal
    entries in index order, so the others are never generated. Entries are
    compared through small integer ids. Every evaluated permutation scans
    the full wall list; exact work done is reported via the optional
    counters dict (keys "permutations", "subset_comparisons").

    Kernel: the sign of wall S under sigma is a's sign at the mask sigma(S).
    The image masks of all walls are packed into one integer with one cell
    per wall: 1 byte for n <= 8 (every mask is below 256), 2 for n <= 16,
    4 beyond. spread[i - 1] has a 1 in the cell of each wall that holds
    position i, so sigma packs to the sum of spread[i - 1] << (sigma(i) - 1).
    The terms for positions 1..k, k = max(n - 3, 0), are summed once per
    prefix sigma[:k], every (n - k)! permutations; the rest are memoized
    per suffix sigma[k:], at most n(n-1)(n-2) integers. Per permutation,
    one OR of the two parts and to_bytes give the images, and one
    bytes.translate through a's 256-byte sign table gives the signs of all
    walls (wider cells are read through memoryview.cast). Equal bytes to
    b's signs mean Equal, and the integers of the two strings give the
    walls where a is Plus and b Minus (not Less) or the reverse (not
    Greater).
    """
    if a.g != b.g or a.n != b.n:
        raise DomainError("weight data must share genus and length")
    n = a.n
    masks = wall_set(a.g, n).masks
    cell = 1 if n <= 8 else 2 if n <= 16 else 4
    size = cell * len(masks)
    if cell == 1:
        read = bytes.translate
    else:
        fmt = "H" if cell == 2 else "I"

        def read(images: bytes, table: bytes) -> bytes:
            return bytes(map(table.__getitem__, memoryview(images).cast(fmt)))
    order = sys.byteorder
    one, zero = (1).to_bytes(cell, order), bytes(cell)
    spread = [int.from_bytes(b"".join(one if m >> i & 1 else zero
                                      for m in masks), order)
              for i in range(n)]
    sa = _sign_table(a)
    want = bytes(map(_sign_table(b).__getitem__, masks))
    wanted = int.from_bytes(want, order)
    unwanted = ~wanted
    k = max(n - 3, 0)
    lo_spread, hi_spread = spread[:k], spread[k:]
    ids: dict[Fraction, int] = {}
    entry_ids = [ids.setdefault(x, len(ids)) for x in a.entries]
    hi_memo: dict[tuple[int, ...], int] = {}
    prefix = lo = None
    perms_checked = 0
    result: Optional[OrderResult] = None
    for pre, suffix in _split_permutations(entry_ids, k):
        if pre is not prefix:
            prefix = pre
            lo = sum(s << (v - 1) for s, v in zip(lo_spread, pre))
        hi = hi_memo.get(suffix)
        if hi is None:
            hi = hi_memo[suffix] = sum(
                s << (v - 1) for s, v in zip(hi_spread, suffix))
        got = read((lo | hi).to_bytes(size, order), sa)
        perms_checked += 1
        if got == want:
            result = OrderResult("Equal", pre + suffix)
            break
        have = int.from_bytes(got, order)
        if not have & unwanted:
            result = OrderResult("Less", pre + suffix)
            break
        if have & wanted == wanted:
            result = OrderResult("Greater", pre + suffix)
            break
    if counters is not None:
        counters["permutations"] = perms_checked
        counters["subset_comparisons"] = perms_checked * len(masks)
    return result if result is not None else OrderResult("Incomparable", None)


# Feasibility by an exact simplex.
#
# Constraints are stored as (coeffs, bound, strict) meaning
# sum(coeffs[i] * x_i) < bound (strict) or <= bound, with integer
# coefficients and bounds.

_Constraint = tuple[tuple[int, ...], int, bool]


def _signature_constraints(s: ChamberSignature) -> list[_Constraint]:
    ws = s.wall_set
    n = ws.n
    cons: list[_Constraint] = []
    for i in range(n):
        row = [0] * n
        row[i] = -1
        cons.append((tuple(row), 0, True))        # x_i > 0
        row2 = [0] * n
        row2[i] = 1
        cons.append((tuple(row2), 1, False))      # x_i <= 1
    for subset, plus in zip(ws.subsets, s.signs):
        row = [0] * n
        for i in subset:
            row[i - 1] = -1 if plus else 1
        bound = -1 if plus else 1
        cons.append((tuple(row), bound, True))    # strict on both sides
    if ws.g == 0:
        cons.append((tuple([-1] * n), -2, True))  # sum > 2
    return cons


def feasible_point(s: ChamberSignature) -> Optional[WeightDatum]:
    """A rational witness strictly inside the chamber, or None if empty."""
    return _solve(s, _signature_constraints(s))


def _solve(s: ChamberSignature, cons: list[_Constraint]) -> Optional[WeightDatum]:
    """A rational point satisfying cons, which include the constraints of
    s, or None if there is none. The point must have signature s.

    The simplex maximizes a slack eps subject to coeffs.x + eps <= bound on
    strict rows and coeffs.x <= bound on the others, over x >= 0 (the rows
    of s force x > 0 anyway; they also bound x by 1). With eps = d - k,
    d >= 0 and k = max(0, -bound over the strict rows), every right-hand
    side is nonnegative (the non-strict bounds are), so x = 0, d = 0 is a
    first basis and there is no phase 1. Variable x_i has label i, d has
    label n, and the slack of row r label n + 1 + r.

    The tableau is condensed and holds integers. Row r keeps one column per
    nonbasic variable (labels[p] heads column p; n + 1 of them) and the
    right-hand side, and the coefficient coef[r] of its basic variable
    basis[r]; the basic variable's value is rhs_r / coef[r]. A full tableau
    would also hold a column per basic variable, zero in every row but
    that variable's own. A pivot multiplies every other row by the positive
    pivot entry, subtracts a multiple of the pivot row and divides by the
    gcd of the row and its basic coefficient; that is the gcd of the full
    row, so each row is the full row without its zero columns, and the
    pivot sequence is that of the full tableau. In the pivot row the
    leaving variable takes the entering column with the old basic
    coefficient, and in the other rows its entry is minus that times the
    row's entry in the entering column. Bland's rule (the smallest
    eligible label, ratio ties to the smallest basic label) rules out
    cycling; ratios rhs_r / t_r of positive entries t_r are compared by
    cross-multiplying. The first basis with d > k has eps > 0, so every
    strict row holds there and its x is the point; if the optimum has
    d <= k, there is none.
    """
    n = s.wall_set.n
    m = len(cons)
    k = max([0] + [-bound for _, bound, strict in cons if strict])
    labels = list(range(n + 1))
    tab = [[*coeffs, int(strict), bound + k * strict]
           for coeffs, bound, strict in cons]
    tab.append([0] * n + [-1, 0])  # reduced costs of max d; no basic variable
    coef = [1] * m + [0]
    basis = list(range(n + 1, n + 1 + m))
    # pivot until d is basic with a value above k
    while not any(j == n and row[-1] > k * c
                  for j, row, c in zip(basis, tab, coef)):
        enter = min((j for j, c in zip(labels, tab[m]) if c < 0),
                    default=None)
        if enter is None:
            return None
        col = labels.index(enter)
        # the LP is bounded, so some row limits the entering column
        piv = -1
        for r in range(m):
            t = tab[r][col]
            if t > 0:
                rhs = tab[r][-1]
                if piv < 0 or rhs * best_t < best_rhs * t or (
                        rhs * best_t == best_rhs * t and basis[r] < basis[piv]):
                    piv, best_rhs, best_t = r, rhs, t
        top = tab[piv]
        a, leave = top[col], coef[piv]
        for r, row in enumerate(tab):
            f = row[col]
            if r != piv and f:
                row = [a * x - f * y for x, y in zip(row, top)]
                row[col] = -f * leave
                c = a * coef[r]
                g = gcd(c, *row)
                if g > 1:
                    row = [x // g for x in row]
                    c //= g
                tab[r], coef[r] = row, c
        top[col], coef[piv] = leave, a
        labels[col], basis[piv] = basis[piv], enter
    values = [Fraction(0)] * n
    for r, j in enumerate(basis):
        if j < n:
            values[j] = Fraction(tab[r][-1], coef[r])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DomainGapWarning)
        point = WeightDatum(s.wall_set.g, tuple(values))
    if signature(point).signs != s.signs:
        raise AssertionError("feasibility witness fails its own signature")
    return point


def is_feasible(s: ChamberSignature) -> bool:
    return feasible_point(s) is not None


ENUMERATION_CAP = 5


@dataclass(frozen=True)
class ChamberCensus:
    """Realizable chamber signatures, grouped into S_n orbits."""

    orbits: tuple[tuple[ChamberSignature, ...], ...]

    @property
    def chambers(self) -> tuple[ChamberSignature, ...]:
        return tuple(c for orbit in self.orbits for c in orbit)


def enumerate_chambers(g: int, n: int) -> ChamberCensus:
    """All nonempty chamber signatures for (g, n), grouped into S_n orbits.

    Every orbit meets the ascending cone a_1 <= ... <= a_n in exactly one
    chamber. Sorting a point of a chamber C gives a point of the cone, and
    all points of C sort into one chamber: if some S without i and j is Plus
    with i added and Minus with j added, then a_i > a_j on all of C, so
    sorting orders the markings by this relation, and markings it leaves
    unordered can be swapped without changing the signature. A point and
    its images under S_n sort to the same point, so every chamber of an
    orbit sorts into that one chamber, and a chamber in the cone sorts into
    itself.

    So walls are signed only in the cone. There a wall T lies below a wall
    S in the shift order when |T| <= |S| and t_i <= s_{|S|-|T|+i} for T and
    S sorted; then sum_T a <= sum_S a, so S may be Minus only while no Plus
    wall lies below it. Walls come by size, then lexicographically, so every
    wall below S is signed before S. Each complete pattern is tested by the
    exact simplex of _solve with the cone's constraints x_i <= x_{i+1}
    added, and its witness, if any, represents the orbit.

    Weighted games are complete simple games (Taylor and Zwicker, "Simple
    Games", 1999), so the permutations that fix a representative's
    signature are those within its tie classes: the runs of adjacent
    markings whose swap fixes it. The orbit is expanded with one
    permutation per placement of the classes, n! / prod |C|! chambers, and
    each chamber is checked to hold its permuted witness. Chambers are
    listed by signature within an orbit, and orbits by their first chamber.
    """
    if n > ENUMERATION_CAP:
        raise DomainError(f"chamber enumeration capped at n <= {ENUMERATION_CAP}")
    ws = wall_set(g, n)
    subs = [sorted(s) for s in ws.subsets]
    # bit t of below[k] is set when wall t lies below wall k
    below = [sum(1 << t for t, low in enumerate(subs[:k])
                 if len(low) <= len(s)
                 and all(map(le, low, s[len(s) - len(low):])))
             for k, s in enumerate(subs)]
    cone: list[_Constraint] = []
    for i in range(n - 1):
        row = [0] * n
        row[i], row[i + 1] = 1, -1
        cone.append((tuple(row), 0, False))       # x_i <= x_{i+1}
    orbits: list[tuple[ChamberSignature, ...]] = []

    def assign(k: int, plus: int):
        """Sign walls k.. given the Plus walls (bits) among 0..k-1."""
        if k == len(subs):
            rep = ChamberSignature(ws, tuple(bool(plus >> t & 1)
                                             for t in range(k)))
            point = _solve(rep, _signature_constraints(rep) + cone)
            if point is not None:
                orbits.append(_expand_orbit(rep, point))
            return
        if not plus & below[k]:
            assign(k + 1, plus)
        assign(k + 1, plus | 1 << k)

    assign(0, 0)
    return ChamberCensus(tuple(sorted(orbits, key=lambda o: o[0].signs)))


def _expand_orbit(rep: ChamberSignature, point: WeightDatum
                  ) -> tuple[ChamberSignature, ...]:
    """The S_n orbit of rep, sorted by signature, given a witness point of
    rep sorted ascending. The member for sigma has rep's sign at sigma(S) on
    each wall S, and must be the signature of apply_permutation(sigma,
    point). That check runs on integers: the witness's numerators over its
    common denominator den (read from its subset sums) are permuted as
    apply_permutation permutes entries, their subset sums are taken by the
    same recurrence as for a datum, and a wall is Plus where its sum exceeds
    den. Each member is a validated ChamberSignature."""
    ws = rep.wall_set
    n = ws.n
    # tie class of each marking: a run of neighbours whose swap fixes rep
    tie = [0]
    for i in range(1, n):
        swap = list(range(1, n + 1))
        swap[i - 1], swap[i] = i + 1, i
        tie.append(tie[-1] + (_permuted_signs(swap, rep) != rep.signs))
    sums, den = point.subset_sums
    nums = [sums[1 << i] for i in range(n)]
    members = []
    for sigma in _ordered_arrangements(tie, (), n):
        permuted = _mask_sums([nums[i - 1] for i in sigma])
        signs = tuple([permuted[mask] > den for mask in ws.masks])
        if signs != _permuted_signs(sigma, rep):
            raise AssertionError("orbit member misses its permuted witness")
        members.append(ChamberSignature(ws, signs))
    return tuple(sorted(members, key=lambda s: s.signs))


def make_minimal(g: int, n: int) -> WeightDatum:
    """The datum (eps, ..., eps) with eps = 1/(2n), inside the lowest chamber."""
    if g < 1:
        raise DomainError("minimal weights require g >= 1")
    return make_heavy_light(g, n, 0)


def make_floor(g: int, n: int, l: int) -> WeightDatum:
    """The l-th floor datum (1/l + 1/(2ln))^n; Plus exactly on |S| >= l."""
    if g < 1:
        raise DomainError("floor weights require g >= 1")
    if not (2 <= l <= n):
        raise DomainError("floor level must satisfy 2 <= l <= n")
    val = Fraction(1, l) + Fraction(1, 2 * l * n)
    return WeightDatum(g, (val,) * n)


def make_heavy_light(g: int, n: int, m: int) -> WeightDatum:
    """m heavy weights equal to 1 and n - m light weights equal to 1/(2n)."""
    if n < 1:
        raise DomainError("need n >= 1")
    if not (0 <= m <= n):
        raise DomainError("need 0 <= m <= n")
    if g == 0 and m < 2:
        raise DomainError("genus 0 heavy/light weights require m >= 2")
    eps = Fraction(1, 2 * n)
    return WeightDatum(g, (Fraction(1),) * m + (eps,) * (n - m))


def format_subset(subset: Iterable[int]) -> str:
    return "{" + ",".join(str(i) for i in sorted(subset)) + "}"


def signature_json(sig: ChamberSignature) -> dict[str, str]:
    """Render a signature as an ordered {subset: "+"/"-"} mapping."""
    return {format_subset(s): ("+" if b else "-")
            for s, b in zip(sig.wall_set.subsets, sig.signs)}
