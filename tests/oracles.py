"""Independent brute-force reference implementations for cross-checks.

Everything here avoids the package's data structures and algorithms on
purpose: graphs are bare (weights, edges, legs) triples canonicalized by
minimizing over all vertex permutations, ranks come from dense Gaussian
elimination over Fraction, and boundaries are assembled by exhaustive
isomorphism search. Slow but transparent.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
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


def _vertex_stable(g: int, entries: Sequence[Fraction],
                   weights, edges, legs) -> bool:
    v = len(weights)
    for x in range(v):
        total = Fraction(2 * weights[x] - 2)
        for a, b in edges:
            total += (a == x) + (b == x)
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


# Helpers on package objects that only the tests use.

def transpose(m):
    """The transpose of a RationalMatrix."""
    from tropgc import RationalMatrix

    return RationalMatrix(m.cols, m.rows,
                          {(j, i): v for (i, j), v in m.entries().items()})


def to_rows(m) -> list[list[Fraction]]:
    """A RationalMatrix as dense rows of Fractions."""
    out = [[Fraction(0)] * m.cols for _ in range(m.rows)]
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
