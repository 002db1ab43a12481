"""Weight data and the fine chamber decomposition.

A weight datum is a genus g together with rational weights a_1..a_n, each in
(0, 1], with 2g - 2 + sum(a) > 0. The weight space is cut into chambers by
the walls sum_{i in S} a_i = 1 over index subsets S with 2 <= |S| <= n (for
g >= 1) or 2 <= |S| <= n - 2 (for g = 0). This module computes chamber
signatures, the partial order on chambers and on chambers up to the S_n
action, enumerates realizable chambers for small n, and builds the standard
named weight data (minimal, F, floor, heavy/light).

Convention: weights lying exactly on a wall are assigned the Minus side,
since stability for such data agrees with the adjacent lower chamber.
Permutations are written in one-line notation (sigma[i-1] = sigma(i), values
1..n) and act by apply_permutation(sigma, A)_i = A_{sigma(i)}.

Walls are bit masks over positions 1..n, and permuted signatures are read
off the image masks sigma(S) (_wall_images). compare_up_to_symmetry splits
each mask after position max(n - 3, 0), keeps the low images of the current
permutation prefix and a memo of high images per suffix (bounded by
n(n-1)(n-2) lists), and compares all walls of a permutation at C level.
"""

from __future__ import annotations

import itertools
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import or_
from typing import Iterable, Optional, Sequence


class DomainError(ValueError):
    """Input is outside the mathematical domain of the operation."""


class DomainGapWarning(UserWarning):
    """Weight datum has 0 < 2g - 2 + sum(a) <= 1, a contested boundary zone."""


_RATIONAL_RE = re.compile(r"^-?\d+(?:/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" with decimal integers and q > 0."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"invalid rational literal: {text!r}")
    return Fraction(s)


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


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
        object.__setattr__(self, "entries",
                           tuple(Fraction(x) for x in self.entries))
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

    def __str__(self):
        return f"g={self.g}, ({', '.join(format_rational(a) for a in self.entries)})"


@dataclass(frozen=True)
class WallSet:
    """All wall subsets for (g, n), ordered by size then lexicographically."""

    g: int
    n: int
    subsets: tuple[frozenset[int], ...]

    @property
    def masks(self) -> tuple[int, ...]:
        return _wall_masks(self.g, self.n)


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


@lru_cache(maxsize=None)
def _wall_masks(g: int, n: int) -> tuple[int, ...]:
    ws = wall_set(g, n)
    return tuple(sum(1 << (i - 1) for i in s) for s in ws.subsets)


@lru_cache(maxsize=None)
def _mask_index(g: int, n: int) -> dict[int, int]:
    return {m: k for k, m in enumerate(_wall_masks(g, n))}


def _wall_images(bits: Sequence[int], parts: Iterable[int]) -> list[int]:
    """For each part (a mask over positions 1..len(bits)), the OR of
    bits[i - 1] over its positions i."""
    table = [0]
    for bit in bits:
        table += [t | bit for t in table]
    return list(map(table.__getitem__, parts))


@dataclass(frozen=True)
class ChamberSignature:
    """Plus/Minus pattern of every wall inequality sum_{i in S} a_i > 1."""

    wall_set: WallSet
    signs: tuple[bool, ...]  # True = Plus, aligned with wall_set.subsets

    def __post_init__(self):
        if len(self.signs) != len(self.wall_set.subsets):
            raise ValueError("sign count does not match wall count")
        subs = self.wall_set.subsets
        for k, s in enumerate(subs):
            if not self.signs[k]:
                continue
            for t in range(k + 1, len(subs)):
                if s < subs[t] and not self.signs[t]:
                    raise ValueError(
                        f"signature not monotone: {format_subset(s)} is Plus "
                        f"but superset {format_subset(subs[t])} is Minus")


def _subset_sums(entries: Sequence[Fraction]) -> list[Fraction]:
    """sums[mask] = sum of entries over the bits of mask."""
    n = len(entries)
    sums = [Fraction(0)] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & (-mask)
        sums[mask] = sums[mask ^ low] + entries[low.bit_length() - 1]
    return sums


def signature(a: WeightDatum) -> ChamberSignature:
    """Chamber signature of a weight datum; wall points count as Minus."""
    ws = wall_set(a.g, a.n)
    sums = _subset_sums(a.entries)
    signs = tuple(sums[mask] > 1 for mask in ws.masks)
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


def permute_signature(sigma: Sequence[int], sig: ChamberSignature) -> ChamberSignature:
    """Signature of the permuted datum: new sign at S = old sign at sigma(S)."""
    ws = sig.wall_set
    s = _check_permutation(sigma, ws.n)
    index = _mask_index(ws.g, ws.n)
    images = _wall_images([1 << (i - 1) for i in s], ws.masks)
    return ChamberSignature(ws, tuple(sig.signs[index[m]] for m in images))


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


def _sign_table(entries: Sequence[Fraction]) -> list[int]:
    """table[mask] = 1 iff the subset sum over mask exceeds 1. A list, not
    a bytearray: list.__getitem__ is the faster callable for map()."""
    return [1 if s > 1 else 0 for s in _subset_sums(entries)]


def _split_permutations(n: int, k: int):
    """Every permutation of 1..n in lexicographic order, as (prefix, suffix)
    pairs split after position k; one prefix tuple is shared by all of its
    (n - k)! suffixes."""
    positions = range(1, n + 1)
    for prefix in itertools.permutations(positions, k):
        rest = [i for i in positions if i not in prefix]
        for suffix in itertools.permutations(rest):
            yield prefix, suffix


def compare_up_to_symmetry(a: WeightDatum, b: WeightDatum,
                           counters: Optional[dict] = None) -> OrderResult:
    """Compare the chambers of a and b up to the S_n relabeling action.

    Permutations are tried in lexicographic one-line order; the first sigma
    whose permuted signature is equal to, dominated by, or dominating the
    signature of b decides the result, with sigma as the witness. If no
    permutation relates the two signatures the chambers are Incomparable.

    Permutations that produce a weight tuple already seen are skipped (the
    signature depends only on the tuple); entries are compared through small
    integer ids, and with n distinct entries nothing can repeat, so no tuple
    is kept. Every evaluated permutation scans the
    full wall list; exact work done is reported via the optional counters
    dict (keys "permutations", "subset_comparisons").

    Kernel: the sign of wall S under sigma is a's sign at the mask sigma(S).
    Each wall mask is split into positions 1..k, k = max(n - 3, 0), and the
    rest; sigma(S) is the OR of the images of the two parts (_wall_images).
    The low images change only with the prefix sigma[:k], so one list is
    kept and rebuilt every (n - k)! permutations; the high images are
    memoized per suffix sigma[k:], at most n(n-1)(n-2) lists. The signs of
    all walls are then gathered into one byte string and compared with b's
    at C level: equal bytes mean Equal, and the integers of the two strings
    give the walls where a is Plus and b Minus (not Less) or the reverse
    (not Greater).
    """
    if a.g != b.g or a.n != b.n:
        raise DomainError("weight data must share genus and length")
    n = a.n
    masks = _wall_masks(a.g, n)
    sa = _sign_table(a.entries)
    sb = _sign_table(b.entries)
    want = bytes(sb[m] for m in masks)
    wanted = int.from_bytes(want, "big")
    k = max(n - 3, 0)
    lo_parts = [m & ((1 << k) - 1) for m in masks]
    hi_parts = [m >> k for m in masks]
    ids: dict[Fraction, int] = {}
    entry_id = {i: ids.setdefault(x, len(ids))
                for i, x in enumerate(a.entries, 1)}
    seen: Optional[set] = set() if len(ids) < n else None
    hi_memo: dict[tuple[int, ...], list[int]] = {}
    prefix = lo_img = None
    perms_checked = 0
    result: Optional[OrderResult] = None
    for pre, suffix in _split_permutations(n, k):
        if seen is not None:
            key = tuple(map(entry_id.__getitem__, pre + suffix))
            if key in seen:
                continue
            seen.add(key)
        if pre is not prefix:
            prefix = pre
            lo_img = _wall_images([1 << (i - 1) for i in pre], lo_parts)
        hi_img = hi_memo.get(suffix)
        if hi_img is None:
            hi_img = hi_memo[suffix] = _wall_images(
                [1 << (i - 1) for i in suffix], hi_parts)
        got = bytes(map(sa.__getitem__, map(or_, lo_img, hi_img)))
        perms_checked += 1
        if got == want:
            result = OrderResult("Equal", pre + suffix)
            break
        have = int.from_bytes(got, "big")
        if not have & ~wanted:
            result = OrderResult("Less", pre + suffix)
            break
        if not wanted & ~have:
            result = OrderResult("Greater", pre + suffix)
            break
    if counters is not None:
        counters["permutations"] = perms_checked
        counters["subset_comparisons"] = perms_checked * len(masks)
    return result if result is not None else OrderResult("Incomparable", None)


# Fourier-Motzkin feasibility.
#
# Constraints are stored as (coeffs, bound, strict) meaning
# sum(coeffs[i] * x_i) < bound (strict) or <= bound. Coefficients and bounds
# are integers, normalized by their gcd, so elimination stays exact.

_Constraint = tuple[tuple[int, ...], int, bool]


def _normalize_constraint(coeffs: Sequence[int], bound: int, strict: bool) -> _Constraint:
    g = 0
    for c in coeffs:
        g = gcd(g, c)
    g = gcd(g, bound)
    if g > 1:
        coeffs = tuple(c // g for c in coeffs)
        bound //= g
    return (tuple(coeffs), bound, strict)


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


def _fm_eliminate(cons: list[_Constraint], var: int) -> Optional[list[_Constraint]]:
    """Eliminate variable var; returns None if a contradiction appears."""
    pos, neg, rest = [], [], []
    for c in cons:
        cv = c[0][var]
        if cv > 0:
            pos.append(c)
        elif cv < 0:
            neg.append(c)
        else:
            rest.append(c)
    # the tightest (bound, strict) per coefficient row; strict wins a tie
    best: dict[tuple[int, ...], tuple[int, bool]] = {}

    def add(coeffs, bound, strict):
        if all(c == 0 for c in coeffs):
            if bound < 0 or (bound == 0 and strict):
                return False
            return True
        coeffs, bound, strict = _normalize_constraint(coeffs, bound, strict)
        cur = best.get(coeffs)
        if cur is None or (bound, not strict) < (cur[0], not cur[1]):
            best[coeffs] = (bound, strict)
        return True

    for c in rest:
        if not add(*c):
            return None
    for cp, bp, sp in pos:
        for cn, bn, sn in neg:
            a = -cn[var]
            b = cp[var]
            coeffs = tuple(a * cp[i] + b * cn[i] for i in range(len(cp)))
            bound = a * bp + b * bn
            if not add(coeffs, bound, sp or sn):
                return None
    return [(coeffs, bound, strict) for coeffs, (bound, strict) in best.items()]


def feasible_point(s: ChamberSignature) -> Optional[WeightDatum]:
    """A rational witness strictly inside the chamber, or None if empty."""
    n = s.wall_set.n
    systems = [_signature_constraints(s)]
    for var in range(n - 1, 0, -1):
        nxt = _fm_eliminate(systems[-1], var)
        if nxt is None:
            return None
        systems.append(nxt)
    # systems[k] constrains variables x_0..x_{n-1-k}; solve forward.
    values: list[Fraction] = []
    for var in range(n):
        cons = systems[n - 1 - var]
        lo: Optional[tuple[Fraction, bool]] = None
        hi: Optional[tuple[Fraction, bool]] = None
        for coeffs, bound, strict in cons:
            cv = coeffs[var]
            if cv == 0:
                continue
            acc = Fraction(bound)
            for i in range(var):
                acc -= coeffs[i] * values[i]
            limit = acc / cv
            if cv > 0:
                # x_var <= limit (or < limit when strict)
                if hi is None or limit < hi[0] or \
                        (limit == hi[0] and strict and not hi[1]):
                    hi = (limit, strict)
            else:
                # x_var >= limit (or > limit when strict)
                if lo is None or limit > lo[0] or \
                        (limit == lo[0] and strict and not lo[1]):
                    lo = (limit, strict)
        if lo is None or hi is None:
            return None
        lo_v, lo_strict = lo
        hi_v, hi_strict = hi
        if lo_v > hi_v or (lo_v == hi_v and (lo_strict or hi_strict)):
            return None
        if lo_v == hi_v:
            values.append(lo_v)
        else:
            values.append((lo_v + hi_v) / 2)
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
    """Realizable chamber signatures for (g, n), grouped into S_n orbits."""

    g: int
    n: int
    orbits: tuple[tuple[ChamberSignature, ...], ...]

    @property
    def chambers(self) -> tuple[ChamberSignature, ...]:
        return tuple(c for orbit in self.orbits for c in orbit)


def enumerate_chambers(g: int, n: int) -> ChamberCensus:
    """All nonempty chamber signatures for (g, n), grouped into orbits.

    Candidate signatures are generated monotonically (a subset may be Minus
    only while no Plus subset sits below it) and kept when a strict interior
    rational point exists. The orbit of a chamber is keyed by the signature
    of its interior point sorted ascending, which is the same for every
    chamber of the orbit: if some S without i and j is Plus with i added
    and Minus with j added, then a_i > a_j on the whole chamber, so sorting
    orders the markings by this relation, and markings it leaves unordered
    can be swapped without changing the signature. Chambers are listed by
    signature within an orbit, and orbits by their first chamber.
    """
    if n > ENUMERATION_CAP:
        raise DomainError(f"chamber enumeration capped at n <= {ENUMERATION_CAP}")
    ws = wall_set(g, n)
    subs = ws.subsets
    grouped: dict[tuple[bool, ...], list[ChamberSignature]] = {}

    def assign(k: int, signs: list[bool]):
        if k == len(subs):
            cand = ChamberSignature(ws, tuple(signs))
            point = feasible_point(cand)
            if point is not None:
                ascending = sorted(range(1, n + 1),
                                   key=lambda i: point.entries[i - 1])
                orbit_key = signature(apply_permutation(ascending, point)).signs
                grouped.setdefault(orbit_key, []).append(cand)
            return
        forced_plus = any(signs[t] and subs[t] < subs[k] for t in range(k))
        for choice in ((True,) if forced_plus else (False, True)):
            signs.append(choice)
            assign(k + 1, signs)
            signs.pop()

    assign(0, [])
    orbits = (tuple(sorted(v, key=lambda s: s.signs))
              for v in grouped.values())
    return ChamberCensus(g, n, tuple(sorted(orbits, key=lambda o: o[0].signs)))


def make_minimal(g: int, n: int) -> WeightDatum:
    """The datum (eps, ..., eps) with eps = 1/(2n), inside the lowest chamber."""
    if g < 1:
        raise DomainError("minimal weights require g >= 1")
    if n < 1:
        raise DomainError("need n >= 1")
    eps = Fraction(1, 2 * n)
    return WeightDatum(g, (eps,) * n)


def make_F(g: int, n: int) -> WeightDatum:
    """The datum (1/n + delta)^n with delta = 1/(2n^2); only the full set is Plus."""
    if g < 1:
        raise DomainError("F weights require g >= 1")
    if n < 1:
        raise DomainError("need n >= 1")
    val = Fraction(1, n) + Fraction(1, 2 * n * n)
    return WeightDatum(g, (val,) * n)


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
