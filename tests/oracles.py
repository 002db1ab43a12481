"""Independent brute-force reference implementations for cross-checks.

Everything here avoids the package's data structures and algorithms on
purpose: graphs are bare (weights, edges, legs) triples canonicalized by
minimizing over all vertex permutations, ranks come from dense Gaussian
elimination over Fraction, boundaries are assembled by exhaustive
isomorphism search, and chambers are tested by Fourier-Motzkin elimination.
Slow but transparent.
"""

from __future__ import annotations

import re
import warnings
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import gcd
from typing import Optional, Sequence

Key = tuple[tuple[int, ...], tuple[tuple[int, int], ...], tuple[int, ...]]


def dense_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank by textbook Gaussian elimination over Fraction."""
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank_ = 0
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = mat[row][col]
        for r in range(len(mat)):
            if r != row and mat[r][col] != 0:
                factor = mat[r][col] / inv
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[row])]
        row += 1
        rank_ += 1
        if row == len(mat):
            break
    return rank_


def _connected(v: int, edges: Sequence[tuple[int, int]]) -> bool:
    parent = list(range(v))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    return len({find(x) for x in range(v)}) == 1


def _mapped_key(weights, edges, legs, perm) -> Key:
    w = tuple(weights[perm.index(i)] for i in range(len(perm)))
    es = tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))
    return (w, es, tuple(perm[x] for x in legs))


def canonical_key(weights, edges, legs) -> Key:
    v = len(weights)
    return min(_mapped_key(weights, edges, legs, p)
               for p in permutations(range(v)))


def edge_degree(edges, v: int) -> int:
    """Number of edge half-edges at v; a loop contributes 2."""
    return sum((a == v) + (b == v) for a, b in edges)


def _vertex_stable(g: int, entries: Sequence[Fraction],
                   weights, edges, legs) -> bool:
    v = len(weights)
    for x in range(v):
        total = Fraction(2 * weights[x] - 2 + edge_degree(edges, x))
        for i, lv in enumerate(legs):
            if lv == x:
                total += entries[i]
        if total <= 0:
            return False
    return True


def enumerate_classes(g: int, entries: Sequence[Fraction], m: int
                      ) -> list[Key]:
    """All isomorphism classes of connected stable graphs with m edges."""
    entries = tuple(Fraction(x) for x in entries)
    n = len(entries)
    seen: set[Key] = set()
    for v in range(1, m + 2):
        b1 = m - v + 1
        total_weight = g - b1
        if b1 < 0 or total_weight < 0:
            continue
        pairs = [(a, b) for a in range(v) for b in range(a, v)]
        for edge_multiset in combinations_with_replacement(pairs, m):
            if not _connected(v, edge_multiset):
                continue
            loops = sum(1 for a, b in edge_multiset if a == b)
            if m - loops < v - 1:
                continue
            for weight_spots in combinations_with_replacement(
                    range(v), total_weight):
                weights = [0] * v
                for x in weight_spots:
                    weights[x] += 1
                for legs in product(range(v), repeat=n):
                    if not _vertex_stable(g, entries, weights,
                                          edge_multiset, legs):
                        continue
                    seen.add(canonical_key(tuple(weights),
                                           edge_multiset, legs))
    return sorted(seen)


def _inversions(seq: Sequence[int]) -> int:
    return sum(1 for i in range(len(seq))
               for j in range(i + 1, len(seq)) if seq[i] > seq[j])


def odd_class(key: Key) -> bool:
    """True when some automorphism permutes the edge positions oddly."""
    weights, edges, legs = key
    if len(set(edges)) < len(edges):
        return True  # a swap of parallel edges (or twin loops) is odd
    v = len(weights)
    for perm in permutations(range(v)):
        if _mapped_key(weights, edges, legs, perm) != key:
            continue
        mapped = [tuple(sorted((perm[a], perm[b]))) for a, b in edges]
        positions = [edges.index(e) for e in mapped]
        if _inversions(positions) % 2 == 1:
            return True
    return False


def _contract(weights, edges, legs, i):
    """Contract non-loop edge i: merge into the smaller endpoint."""
    a, b = edges[i]
    assert a != b
    new_weights = list(weights)
    new_weights[a] += new_weights[b]
    del new_weights[b]

    def shift(x: int) -> int:
        if x == b:
            return a
        return x - 1 if x > b else x

    new_edges = tuple(tuple(sorted((shift(p), shift(q))))
                      for j, (p, q) in enumerate(edges) if j != i)
    new_legs = tuple(shift(x) for x in legs)
    return tuple(new_weights), new_edges, new_legs


def express(weights, edges, legs, reps: Sequence[Key]
            ) -> Optional[tuple[int, int]]:
    """Locate (index, sign) of a graph inside a list of even classes.

    The sign is the parity of the induced permutation of edge positions;
    None when the class is missing (zero generator or filtered away).
    """
    v = len(weights)
    for idx, rep in enumerate(reps):
        rw, re, rl = rep
        if len(rw) != v or sorted(rw) != sorted(weights):
            continue
        for perm in permutations(range(v)):
            if _mapped_key(weights, edges, legs, perm) != rep:
                continue
            mapped = [tuple(sorted((perm[a], perm[b]))) for a, b in edges]
            positions = [re.index(e) for e in mapped]
            return idx, (1 if _inversions(positions) % 2 == 0 else -1)
    return None


def graph_boundary(g: int, entries: Sequence[Fraction], m: int
                   ) -> tuple[list[Key], list[Key], list[list[Fraction]]]:
    """Boundary of the pure-graph complex from m edges to m - 1 edges.

    Returns (column classes, row classes, dense matrix). Pure classes only,
    odd classes dropped, loop contractions skipped.
    """
    def pure_even(keys: list[Key]) -> list[Key]:
        return [k for k in keys
                if all(w == 0 for w in k[0]) and not odd_class(k)]

    cols = pure_even(enumerate_classes(g, entries, m))
    rows = pure_even(enumerate_classes(g, entries, m - 1)) if m > 0 else []
    mat = [[Fraction(0)] * len(cols) for _ in rows]
    for c, (weights, edges, legs) in enumerate(cols):
        for i, (a, b) in enumerate(edges):
            if a == b:
                continue
            target = _contract(weights, edges, legs, i)
            hit = express(*target, rows)
            if hit is None:
                continue
            r, sign = hit
            mat[r][c] += Fraction((-1) ** (i + 1) * sign)
    return cols, rows, mat


def graph_betti(g: int, entries: Sequence[Fraction]) -> dict[int, int]:
    """Betti numbers of the pure-graph complex, fully independently."""
    entries = tuple(Fraction(x) for x in entries)
    n = len(entries)
    degrees = range(-g, g + n - 3 + 1)
    dims: dict[int, int] = {}
    ranks: dict[int, int] = {}
    for k in degrees:
        m = k + 2 * g
        cols, _, mat = graph_boundary(g, entries, m)
        dims[k] = len(cols)
        ranks[k] = dense_rank(mat)
    return {k: dims[k] - ranks[k] - ranks.get(k + 1, 0) for k in degrees}


def _parity(perm: Sequence[int]) -> int:
    """+1 for an even permutation, -1 for an odd one."""
    return -1 if _inversions(perm) % 2 else 1


def reference_canonicalize(weights, edges, legs):
    """The brute-force canonical form of the original graphs.canonicalize,
    on bare triples: ((weights, edges, legs), has_odd_edge_automorphism,
    automorphism_generators, edge_map).

    Every arrangement of the (weight, edge degree, marking list) color
    classes is tried, even when each class is a single vertex; the least
    (sorted edges, legs) key wins, its first relabeling gives the form, and
    the relabelings reaching it give the automorphism group.
    """
    nv = len(weights)
    edges = [(min(u, v), max(u, v)) for u, v in edges]
    degrees = [0] * nv
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    markings: list[list[int]] = [[] for _ in range(nv)]
    for i, v in enumerate(legs):
        markings[v].append(i + 1)
    colors: dict[tuple, list[int]] = {}
    for v, w in enumerate(weights):
        colors.setdefault((w, degrees[v], tuple(markings[v])), []).append(v)
    classes = [colors[k] for k in sorted(colors)]
    starts = []
    pos = 0
    for cls in classes:
        starts.append(pos)
        pos += len(cls)

    best_key = None
    best_perms: list[tuple[int, ...]] = []
    for arrangement in product(*(permutations(cls) for cls in classes)):
        relabel = [0] * nv
        for members, start in zip(arrangement, starts):
            for offset, old in enumerate(members):
                relabel[old] = start + offset
        mapped = sorted(tuple(sorted((relabel[u], relabel[v])))
                        for u, v in edges)
        key = (tuple(mapped), tuple(relabel[x] for x in legs))
        if best_key is None or key < best_key:
            best_key, best_perms = key, [tuple(relabel)]
        elif key == best_key:
            best_perms.append(tuple(relabel))

    ref = best_perms[0]
    new_weights = [0] * nv
    for old in range(nv):
        new_weights[ref[old]] = weights[old]
    inverse_ref = [0] * nv
    for old, new in enumerate(ref):
        inverse_ref[new] = old
    autos = {tuple(perm[inverse_ref[p]] for p in range(nv))
             for perm in best_perms}
    autos.discard(tuple(range(nv)))
    generators = tuple(sorted(autos))

    canon_edges = best_key[0]
    has_odd = len(set(canon_edges)) < len(canon_edges)
    if not has_odd:
        index = {edge: i for i, edge in enumerate(canon_edges)}
        has_odd = any(
            _parity([index[tuple(sorted((alpha[u], alpha[v])))]
                     for u, v in canon_edges]) < 0
            for alpha in generators)

    slots = sorted((tuple(sorted((ref[u], ref[v]))), k)
                   for k, (u, v) in enumerate(edges))
    edge_map = [0] * len(edges)
    for slot, (_, k) in enumerate(slots):
        edge_map[k] = slot
    return ((tuple(new_weights), canon_edges, best_key[1]), has_odd,
            generators, tuple(edge_map))


def reference_compare(a, b):
    """compare_up_to_symmetry from its definition: (relation, witness,
    counters).

    Permutations are walked in lexicographic order; one whose tuple of
    permuted entries was already seen is skipped. Each other
    sigma compares signature(apply_permutation(sigma, a)) with signature(b)
    wall by wall through compare_signatures, so this checks the
    symmetrization, the pruning, the first-witness rule and the counters,
    with the per-chamber calculus taken from the package.
    """
    from tropgc import apply_permutation, compare_signatures, signature

    target = signature(b)
    seen = set()
    evaluated = 0
    relation, witness = "Incomparable", None
    for sigma in permutations(range(1, a.n + 1)):
        moved = apply_permutation(sigma, a)
        if moved.entries in seen:
            continue
        seen.add(moved.entries)
        evaluated += 1
        res = compare_signatures(signature(moved), target)
        if res.relation != "Incomparable":
            relation, witness = res.relation, sigma
            break
    return relation, witness, {
        "permutations": evaluated,
        "subset_comparisons": evaluated * len(target.signs)}


def reference_orbits(chambers):
    """The S_n orbits of a list of ChamberSignatures, from the definition:
    each chamber is keyed by the least of its n! permuted signatures.
    Orbits are sorted by that key, and each orbit's chambers by signature."""
    from tropgc import permute_signature

    grouped: dict = {}
    for sig in chambers:
        perms = permutations(range(1, sig.wall_set.n + 1))
        key = min(permute_signature(p, sig).signs for p in perms)
        grouped.setdefault(key, []).append(sig)
    return tuple(tuple(sorted(v, key=lambda s: s.signs))
                 for _, v in sorted(grouped.items()))


# Fourier-Motzkin feasibility, the exact elimination the package used
# before its simplex.
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


def _signature_constraints(s) -> list[_Constraint]:
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


def reference_feasible_point(s):
    """feasible_point by Fourier-Motzkin elimination and a forward solve: a
    rational point strictly inside the chamber of s, or None if it is
    empty. The point must have signature s."""
    from tropgc import DomainGapWarning, WeightDatum, signature

    cons = _signature_constraints(s)
    n = s.wall_set.n
    systems = [cons]
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


def reference_census(g: int, n: int):
    """The census as enumerate_chambers built it before it searched orbit
    representatives: every signature that is monotone under inclusion is
    tested by reference_feasible_point over the whole simplex, and each
    nonempty chamber's orbit is keyed by the signature of its witness sorted
    ascending. Chambers are listed by signature within an orbit, and orbits
    by their first chamber."""
    from tropgc import (ChamberCensus, ChamberSignature, apply_permutation,
                        signature, wall_set)

    ws = wall_set(g, n)
    subs = ws.subsets
    grouped: dict = {}

    def assign(k: int, signs: list):
        if k == len(subs):
            cand = ChamberSignature(ws, tuple(signs))
            point = reference_feasible_point(cand)
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
    return ChamberCensus(tuple(sorted(orbits, key=lambda o: o[0].signs)))


# Helpers on package objects that only the tests use.

def transpose(m):
    """The transpose of a RationalMatrix."""
    from tropgc import RationalMatrix

    columns = [{} for _ in range(m.rows)]
    for (i, j), v in m.entries().items():
        columns[i][j] = v
    return RationalMatrix(m.cols, m.rows, columns)


def to_rows(m) -> list[list[int]]:
    """A RationalMatrix as dense integer rows."""
    out = [[0] * m.cols for _ in range(m.rows)]
    for (i, j), v in m.entries().items():
        out[i][j] = v
    return out


def relabel_legs(graph, sigma: Sequence[int]):
    """Move the markings of a MarkedGraph so stability transforms along with
    the weight datum: the new marking j sits where marking sigma(j) sat."""
    from tropgc import MarkedGraph

    n = len(graph.legs)
    s = tuple(sigma)
    if sorted(s) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {sigma!r}")
    return MarkedGraph(graph.weights, graph.edges,
                       tuple(graph.legs[s[j] - 1] for j in range(n)))


def parse_encoding(text: str) -> tuple[str, Key]:
    """The genus prefix (unparsed) and the (weights, edges, legs) written in
    an encoding, unvalidated. Markings may come in any order but must be
    1..k, each once. Raises ValueError on text of another shape."""
    g_part, w_part, e_part, l_part = text.split(";")
    if not (e_part.startswith("edges=(") and e_part.endswith(")")):
        raise ValueError("no edges=(...) part")
    if not (l_part.startswith("legs=(") and l_part.endswith(")")):
        raise ValueError("no legs=(...) part")
    weights = tuple(map(int, w_part.split(",")))
    e_body = e_part[len("edges=("):-1]
    edges = []
    for item in e_body.split(",") if e_body else ():
        u, v = item.split("-")
        edges.append((int(u), int(v)))
    l_body = l_part[len("legs=("):-1]
    items = l_body.split(",") if l_body else []
    legs_map = {}
    for item in items:
        i, v = item.split("@")
        legs_map[int(i)] = int(v)
    markings = range(1, len(items) + 1)
    if sorted(legs_map) != list(markings):
        raise ValueError("markings are not 1..k, each once")
    return g_part, (weights, tuple(edges), tuple(map(legs_map.get, markings)))


def encode_graph(graph) -> str:
    """The cache line of a graph, written without graphs._encode_parts:
    genus (b1 plus the total weight), weights, edges and legs, e.g.
    "1;0;edges=(0-0);legs=(1@0,2@0,3@0)"."""
    weights, edges, legs = graph
    g = len(edges) - len(weights) + 1 + sum(weights)
    return "{};{};edges=({});legs=({})".format(
        g, ",".join(str(w) for w in weights),
        ",".join(f"{u}-{v}" for u, v in edges),
        ",".join(f"{i}@{v}" for i, v in enumerate(legs, 1)))


def decode_graph(text: str):
    """The MarkedGraph written in an encode_graph text, markings in any
    order (parse_encoding); ValueError on text of another shape or a wrong
    genus prefix."""
    from tropgc import MarkedGraph
    from tropgc.graphs import genus

    try:
        g_part, parts = parse_encoding(text.strip())
        graph = MarkedGraph(*parts)
        prefix = int(g_part)
    except ValueError as exc:
        raise ValueError(f"bad graph encoding: {text!r}") from exc
    if genus(graph) != prefix:
        raise ValueError(f"genus prefix {g_part} does not match graph in "
                         f"{text!r}")
    return graph


# The text encode_graph writes, around numerals as str() writes them, in
# ASCII digits: the grammar the cache-line reader once matched.
_N = "(?:0|[1-9][0-9]*)"
_ENCODING = re.compile(
    rf"({_N});({_N}(?:,{_N})*);edges=\(((?:{_N}-{_N}(?:,{_N}-{_N})*)?)\);"
    rf"legs=\(((?:{_N}@{_N}(?:,{_N}@{_N})*)?)\)")


def reference_decode(line: str):
    """The CanonicalGraph whose encoding is line, by the cache-line reader
    that matched a grammar: the line must match _ENCODING, with markings
    1..k in order and a genus prefix of b1 plus the total weight, and the
    parts it names must be a valid graph equal to their own canonical form
    (canonicalize). ValueError otherwise. The reference acceptor for
    graphs._decode_canonical, which re-encodes a line instead."""
    from tropgc import MarkedGraph, canonicalize

    match = _ENCODING.fullmatch(line)
    if match is None:
        raise ValueError(f"bad graph encoding: {line!r}")
    g_text, w_text, e_text, l_text = match.groups()
    weights = tuple(map(int, w_text.split(",")))
    ends = e_text.replace("-", ",").split(",") if e_text else ()
    edges = tuple(zip(map(int, ends[::2]), map(int, ends[1::2])))
    marked = l_text.replace("@", ",").split(",") if l_text else ()
    legs = tuple(map(int, marked[1::2]))
    if (list(map(int, marked[::2])) != list(range(1, len(legs) + 1))
            or int(g_text) != len(edges) - len(weights) + 1 + sum(weights)):
        raise ValueError(f"encoding is not canonical: {line!r}")
    try:
        cg, _ = canonicalize(MarkedGraph(weights, edges, legs))
    except ValueError as exc:
        raise ValueError(f"bad graph encoding: {line!r}") from exc
    graph = cg.graph
    if (graph.weights, graph.edges, graph.legs) != (weights, edges, legs):
        raise ValueError(f"encoding is not canonical: {line!r}")
    return cg


def reference_is_stable(graph, g: int, a) -> bool:
    """is_stable of a MarkedGraph for a WeightDatum, vertex by vertex, with
    the marking weights summed as Fractions; the genus and the degrees are
    read off the bare weights, edges and legs."""
    from tropgc import DomainError

    weights, edges, legs = graph.weights, graph.edges, graph.legs
    if len(legs) != a.n:
        raise DomainError("weight datum length differs from leg count")
    h = len(edges) - len(weights) + 1 + sum(weights)
    if h != g:
        raise DomainError(f"graph has genus {h}, expected {g}")
    return _vertex_stable(g, a.entries, weights, edges, legs)


def every_uncontraction(cg, sums: Sequence[int], den: int):
    """Every A-stable uncontraction of a canonical class, as (weights,
    edges, legs) with the new edge last, for the integer subset sums
    (sums, den) of A: enumeration._uncontractions without its pruning. One
    vertex v per automorphism orbit gets a loop for a unit of its weight,
    or is split in every way: every weight share, and every subset of its
    edge ends and legs that leaves its first item at v."""
    graph = cg.graph
    weights, edges, legs = graph.weights, graph.edges, graph.legs
    new = len(weights)
    m = len(edges)
    for v in range(new):
        if any(alpha[v] < v for alpha in cg.automorphism_generators):
            continue
        if weights[v] > 0:
            yield (weights[:v] + (weights[v] - 1,) + weights[v + 1:],
                   edges + ((v, v),), legs)
        # items: edge end k of edge e is 2e + k; marking i is 2m + i
        items = [2 * e + k for e, ends in enumerate(edges)
                 for k in (0, 1) if ends[k] == v]
        shares = [den] * len(items)
        for i, x in enumerate(legs):
            if x == v:
                items.append(2 * m + i)
                shares.append(sums[1 << i])
        total = sum(shares)
        rest = items[1:]
        for mask in range(1 << len(rest)):
            moved = {item for j, item in enumerate(rest) if mask >> j & 1}
            s = sum(share for item, share in zip(items, shares)
                    if item in moved)
            split_edges = []
            for e, (u, x) in enumerate(edges):
                ends = [new if 2 * e + k in moved else end
                        for k, end in enumerate((u, x))]
                split_edges.append(tuple(sorted(ends)))
            split_edges.append((v, new))
            child_legs = tuple(new if 2 * m + i in moved else x
                               for i, x in enumerate(legs))
            # each side of the new edge needs a stability total above 0
            for w_new in range(weights[v] + 1):
                w_v = weights[v] - w_new
                if (2 * w_new - 1) * den + s > 0 and \
                        (2 * w_v - 1) * den + total - s > 0:
                    yield (weights[:v] + (w_v,) + weights[v + 1:] + (w_new,),
                           tuple(split_edges), child_legs)


def new_edge_is_largest(weights, edges, legs) -> bool:
    """Whether the last edge has the largest (is non-loop, sorted pair of
    end colours) of all edges, ties included, a vertex's colour being its
    (weight, edge degree, markings); read from the parts alone."""
    colors = [(w, edge_degree(edges, x),
               tuple(i for i, y in enumerate(legs, 1) if y == x))
              for x, w in enumerate(weights)]

    def invariant(u, v):
        return (u != v, tuple(sorted((colors[u], colors[v]))))

    top = invariant(*edges[-1])
    return all(invariant(u, v) <= top for u, v in edges)
