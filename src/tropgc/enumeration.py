"""Exhaustive enumeration of stable graph isomorphism classes, with caching.

Every weight datum A is served by one routine, _generate: it builds the
A-stable classes with m edges from the A-stable classes with m - 1 edges by
uncontracting one edge (split a vertex, or add a loop for a unit of
weight), from a one-vertex base. Each class is built from its canonical
parents only, after McKay ("Isomorph-free exhaustive generation", J.
Algorithms 1998): an uncontraction is kept only if its new edge has the
largest invariant (is non-loop, sorted pair of endpoint colours) of all its
edges, a vertex's colour being its (weight, edge degree, markings), and
among the edges that tie it, the largest sorted pair of end colours refined
by the colours around each end. The first test is decided from the
parent's colours before a candidate's parts are built, and the ends of
parallel edges and loops at the split vertex, which are interchangeable,
move together, so most classes are canonicalized once. A rejected
candidate is never canonicalized and never enters the canonical memo.

Stability depends on A only through its chamber, so chamber-equal data
share one cache entry: cache files are keyed by (g, n, edge count, purity,
signature hash) and store one canonical graph encoding per line, after a
header line with that key, the line count and a SHA-256 of the body, so a
truncated, damaged or misplaced file is recomputed, not believed. The
header is checked on every load; the body of a file that passes is checked
line by line once per process (graphs._decode_canonical), each head and
legs text its lines share read and checked once for the whole body: the
line must be exactly the text _encode_parts writes for the parts it names,
so no sign, space, underscore, leading zero or empty item, markings 1..k in
order and a genus prefix equal to b1 plus the total weight; those parts
must be a valid graph (indices in range, no negative weight, connected)
with the genus, marking count and edge count of the file's key, and no
positive weight under a pure key; and they must equal their own canonical
form, confirmed in place when no two vertices share a colour. So a body
written under the key of another genus, marking count, edge count or
purity, its header recomputed, is recomputed too; only a body from another
chamber of the same (g, n, m, purity) can pass for this one. A line that
fails, a body that does not end in a newline, or one whose lines do not
strictly increase, as they are written, makes the file recomputed. An
accepted line is then its form's encoding, and is kept as that when the
form is new to the process. Its classes are kept in memory under the
file's (g, n, m, purity) and the body's SHA-256, so identical bytes under
one such key, as chamber-equal files of different chambers may hold, are
never decoded twice. A body this process wrote is kept in memory when it is
written, and is not decoded at all.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import warnings
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterable, Optional, Sequence

from .chambers import (ChamberSignature, DomainError, WeightDatum,
                       compare_signatures, signature)
from .graphs import (CanonicalGraph, Edge, MarkedGraph, Parts,
                     _canonicalize_parts, _decode_canonical,
                     _stability_levels, _vertex_colors, canonicalize)

CACHE_ENV_VAR = "TROPGC_CACHE"
DEFAULT_CACHE_DIR = ".tropgc-cache"


def cache_dir() -> str:
    return os.environ.get(CACHE_ENV_VAR, DEFAULT_CACHE_DIR)


def signature_hash(sig: ChamberSignature) -> str:
    """Stable hex digest identifying a chamber (shared by chamber-equal data)."""
    ws = sig.wall_set
    text = f"g{ws.g};n{ws.n};" + "".join("+" if b else "-" for b in sig.signs)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class GraphClassSet:
    """Deduplicated stable graph classes with a fixed edge count."""

    classes: tuple[CanonicalGraph, ...]


def max_edges(g: int, n: int) -> int:
    return 3 * g - 3 + n


def _uncontractions(cg: CanonicalGraph, sums: Sequence[int],
                    den: int) -> Iterable[Parts]:
    """The (weights, edges, legs) of A-stable graphs with one more edge than
    cg.graph that contract to it and whose new edge, the last one, has the
    largest refined invariant (_wins_refined_tie) of all their edges,
    ties included, each edge written low end first, for the weight datum A
    with integer subset sums (sums, den) (WeightDatum.subset_sums).

    One vertex v per automorphism orbit gets a loop in exchange for a unit
    of weight, which keeps its stability total, when it is the only vertex
    (elsewhere a new loop is not largest), or is split: its weight is
    shared in every way, and a subset of its edge ends and legs, never the
    first, moves to a new vertex joined to v, so a subset and its complement
    are not both tried. Interchangeable items move together: of the ends at
    v of the parallel edges to one neighbour, the first item left out, only
    a prefix moves; each loop at v moves a prefix of its ends there, the
    first item left out, and the loops at v move nondecreasing numbers of
    ends in edge order. So a permutation of the parallel edges to one
    neighbour or of the loops at v, or a swap of a loop's ends, never
    carries one child yielded onto another. At a vertex without parallel
    edges or loops every subset is tried.

    A split is rejected before its parts are built, first when a side of
    the new edge is not A-stable, then when its new edge's invariant
    (_edge_invariant) is not the largest, from the colours (_vertex_colors):
    the split keeps every colour but v's and gives the new vertex its own,
    so an edge away from v keeps its invariant, and an edge from one side
    of the new edge to a neighbour u is above the new edge exactly when u's
    colour is above the other side's. Only a child with another edge of
    the same invariant has its neighbour colours compared.
    """
    weights, edges, legs = cg.graph
    new = len(weights)
    colors = _vertex_colors(weights, edges, legs)
    # the non-loop edges' sorted pairs of end colours, largest first
    pairs = sorted([(_edge_invariant(colors, x, y)[1], x, y)
                    for x, y in edges if x != y], reverse=True)
    # each vertex's edge ends (end k of edge e as 2e + k), in edge order,
    # with the vertex at their other end
    at: list[list[tuple[int, int]]] = [[] for _ in weights]
    for e, (x, y) in enumerate(edges):
        at[x].append((2 * e, y))
        at[y].append((2 * e + 1, x))
    for v in range(new):
        if any(alpha[v] < v for alpha in cg.automorphism_generators):
            continue  # another vertex of the orbit is split instead
        if weights[v] > 0 and new == 1:
            yield ((weights[v] - 1,), edges + ((v, v),), legs)
        w_v, deg_v, markings = colors[v]
        # the largest pair of an edge away from v, which every split keeps;
        # a side of the new edge with d edge ends has a colour below
        # (w_v, d + 1), and one side has at most deg_v // 2 + 1 ends
        away = next((pair for pair, x, y in pairs if x != v and y != v), ())
        if away >= ((w_v, deg_v // 2 + 2),):
            continue
        ends = at[v]
        positions: dict[int, list[int]] = {}  # by the other end's vertex
        for j, (_, u) in enumerate(ends):
            positions.setdefault(u, []).append(j)
        # the ways to move ends, as (bits over ends, how many), and per
        # neighbour its colour and the bits of its ends
        end_moves = [(0, 0)]
        neighbours = []
        for u, js in positions.items():
            if u != v:
                bits = prefix = 0
                block = []
                for j in js:
                    bits |= 1 << j
                    if j:
                        prefix |= 1 << j
                        block.append((prefix, len(block) + 1))
                neighbours.append((colors[u], bits))
            else:
                loops = [[j for j in js[k:k + 2] if j]
                         for k in range(0, len(js), 2)]
                block = [(sum(1 << j for c, loop in zip(counts, loops)
                              for j in loop[:c]), sum(counts))
                         for counts in combinations_with_replacement(
                             range(3), len(loops))
                         if 0 < counts[-1] and counts[0] <= len(loops[0])]
            end_moves += [(mask | bits, k + c) for bits, c in block
                          for mask, k in end_moves]
        neighbours.sort(reverse=True)
        # a vertex is A-stable when the shares of its items (den per edge
        # end, sums[1 << i] for marking i) exceed (2 - 2w) * den, so a side
        # of the new edge whose items share at most den needs weight
        total = den * len(ends)
        # the ways to move legs, as (share, markings moved, markings kept);
        # at a vertex without edge ends the first leg is the first item
        leg_moves = [(0, (), ())]
        for i in markings:
            share = sums[1 << (i - 1)]
            total += share
            moves = [(s, moved, stay + (i,)) for s, moved, stay in leg_moves]
            if ends or leg_moves[0][2]:  # else marking i is the first item
                moves += [(s + share, moved + (i,), stay)
                          for s, moved, stay in leg_moves]
            leg_moves = moves
        for end_mask, k in end_moves:
            bound_new, bound_v = (w_v, k + 2), (w_v, deg_v - k + 2)
            if away >= (min(bound_new, bound_v),):
                continue
            # the largest colours of the neighbours joined to each side
            top_new = top_v = ()
            for c, bits in neighbours:
                if not top_new and bits & end_mask:
                    top_new = c
                if not top_v and bits & ~end_mask:
                    top_v = c
            if top_new >= bound_v or top_v >= bound_new:
                continue
            for s, new_marks, v_marks in leg_moves:
                s += k * den
                child = None
                for w_new in range(s <= den, w_v + (total - s > den)):
                    c_new = (w_new, k + 1, new_marks)
                    c_v = (w_v - w_new, deg_v - k + 1, v_marks)
                    pair = (c_v, c_new) if c_v <= c_new else (c_new, c_v)
                    if top_new > c_v or top_v > c_new or pair < away:
                        continue
                    if child is None:
                        child = _split(edges, legs, v, new, {
                            ends[j][0] for j in range(len(ends))
                            if end_mask >> j & 1}, new_marks)
                    parts = (weights[:v] + (w_v - w_new,) + weights[v + 1:]
                             + (w_new,), *child)
                    # ties that neighbour colours may break: an edge away
                    # from v, or one to a neighbour coloured as the other
                    # side (a loop split in two joins the same ends)
                    if ((pair == away or top_new == c_v or top_v == c_new)
                            and not _wins_refined_tie(*parts)):
                        continue
                    yield parts


def _split(edges: tuple[Edge, ...], legs: tuple[int, ...], v: int, new: int,
           moved: set[int], marks: tuple[int, ...]
           ) -> tuple[tuple[Edge, ...], tuple[int, ...]]:
    """The edges and legs once the edge ends in moved (end k of edge e as
    2e + k) and the markings in marks leave v for the vertex new, the
    highest, joined to v by a new last edge."""
    split_edges = []
    for e, (u, x) in enumerate(edges):
        if 2 * e + 1 in moved:
            x = new
        # new is the highest vertex, so a moved first end becomes the second
        split_edges.append((x, new) if 2 * e in moved else (u, x))
    split_edges.append((v, new))
    return tuple(split_edges), tuple([new if i in marks else x
                                      for i, x in enumerate(legs, 1)])


def _generate(g: int, a: WeightDatum, m: int,
              pure_only: bool) -> tuple[CanonicalGraph, ...]:
    """All classes stable for the weight datum a, genus g, m edges.

    A vertex's stability total is (2w(v) - 2 + |v|_E) * den + sums[markings
    at v], with a's integer subset sums. Contracting a non-loop edge gives
    the merged vertex the sum of its ends' totals, and contracting a loop
    keeps its vertex's total, so contracting an edge keeps a graph a-stable,
    and contracting a non-loop edge keeps it pure; a graph whose edges are
    all loops has one vertex. So above the base level, the classes with m
    edges are the canonical forms of the a-stable uncontractions of the
    classes with m - 1 edges, taken from enumerate_stable_graphs (and its
    cache) for the same datum. The base is one vertex with every leg: of
    weight g at m = 0 for all graphs, and for pure graphs the rose of weight
    0 with g loops at m = g, below which there are none. Its total is
    (2g - 2 + sum(a)) * den, positive for every WeightDatum. A pure graph
    has weight 0 everywhere, so its uncontractions are pure.

    An uncontraction is canonicalized only if its new edge, the last one,
    has the largest refined invariant of all its edges: the largest
    invariant, which _uncontractions tests before it builds the parts, then
    ties broken on neighbour colours (_wins_refined_tie). The ties that
    remain go to the dedupe by canonical form. No class C above the base is
    lost. Let e be an edge of C of largest refined invariant; a pure C has
    more than one vertex, so there e is not a loop. Contracting e gives an
    a-stable class P with one edge fewer, pure if C is, and some split of P
    gives a child isomorphic to C by an isomorphism that takes the child's
    new edge to e; the child is a-stable as C is. Each rule of
    _uncontractions only trades such a (child, new edge) pair for an
    isomorphic one: splitting one vertex v per automorphism orbit, keeping
    the first item at v (a swap of v and the new vertex) and trying every
    weight split; moving interchangeable items together, since permuting
    the parallel edges to one neighbour or the loops at v, and swapping a
    loop's ends, are automorphisms of P that fix every vertex, and carry a
    subset that keeps the first item at v to one that is tried; and the
    colour test, which rejects only children whose new edge is not
    largest, since it computes their invariants exactly. An
    isomorphism keeps vertex colours and the colours around each vertex, so
    it keeps refined invariants, and that child passes both tests. A loop's
    invariant is below every non-loop edge's, so for pure graphs the test
    picks the largest among the non-loop edges, the ones whose contraction
    keeps a graph pure.
    """
    base = g if pure_only else 0
    if m < base:
        return ()
    if m == base:
        vertex = MarkedGraph((g - m,), ((0, 0),) * m, (0,) * a.n)
        return (canonicalize(vertex)[0],)
    below = enumerate_stable_graphs(g, a, m - 1, pure_only)
    sums, den = a.subset_sums
    found: dict[MarkedGraph, CanonicalGraph] = {}
    for parent in below.classes:
        for child in _uncontractions(parent, sums, den):
            cg, _ = _canonicalize_parts(*child)
            found.setdefault(cg.graph, cg)
    return tuple(sorted(found.values(), key=lambda cg: cg.encoding))


def _edge_invariant(colors: Sequence[tuple], u: int, v: int) -> tuple:
    """(is non-loop, sorted pair of endpoint colours) of an edge (u, v),
    given each vertex's colour (_vertex_colors). An isomorphism of graphs
    keeps vertex colours, so it keeps the invariant of every edge."""
    cu, cv = colors[u], colors[v]
    return (u != v, (cu, cv) if cu <= cv else (cv, cu))


def _wins_refined_tie(weights: tuple[int, ...], edges: tuple[Edge, ...],
                      legs: tuple[int, ...]) -> bool:
    """Whether the last edge, the one an uncontraction added, has the
    largest sorted pair of its ends' refined colours among the edges of its
    invariant (_edge_invariant). The caller, _uncontractions, has found its
    invariant the largest of all edges and another edge tying it. A
    vertex's refined colour is its colour and the sorted colours of the
    other ends of its edges (its own twice per loop), which an isomorphism
    keeps too.
    """
    colors = _vertex_colors(weights, edges, legs)
    around: list[list[tuple]] = [[] for _ in colors]
    for x, y in edges:
        around[x].append(colors[y])
        around[y].append(colors[x])
    refined = [(color, sorted(a)) for color, a in zip(colors, around)]
    top = _edge_invariant(colors, *edges[-1])
    best = _edge_invariant(refined, *edges[-1])
    return all(_edge_invariant(refined, x, y) <= best for x, y in edges
               if _edge_invariant(colors, x, y) == top)


def _cache_path(g: int, n: int, m: int, pure_only: bool, sig_hash: str) -> str:
    kind = "pure" if pure_only else "all"
    return os.path.join(cache_dir(),
                        f"g{g}_n{n}_m{m}_{kind}_{sig_hash}.txt")


def _cache_header(path: str, body: bytes, digest: str) -> bytes:
    """First line of a cache file: format version, key (the file name),
    line count and the SHA-256 of everything after it."""
    key = os.path.splitext(os.path.basename(path))[0]
    count = body.count(b"\n")
    return f"tropgc-cache 2 {key} {count} {digest}".encode()


# Classes of every cache body decoded or written so far, by its file's key
# (g, n, m, pure only) and its SHA-256.
_decoded: dict[tuple[tuple[int, int, int, bool], str],
               tuple[CanonicalGraph, ...]] = {}


def _cache_load(path: str, key: tuple[int, int, int, bool]
                ) -> Optional[tuple[CanonicalGraph, ...]]:
    """Classes stored at path, the file of key (g, n, m, pure only); None,
    with a warning, when the file's header is missing or does not match its
    name and body, its lines do not strictly increase (as _cache_store
    writes them), or a line is not a canonical encoding of a graph with the
    key's genus, marking count and edge count, pure under a pure key, so
    the caller recomputes."""
    try:
        with open(path, "rb") as fh:
            header, _, body = fh.read().partition(b"\n")
    except FileNotFoundError:
        return None
    digest = hashlib.sha256(body).hexdigest()
    try:
        if header != _cache_header(path, body, digest):
            raise ValueError("its header is missing or does not match its "
                             "name or contents")
        if (key, digest) not in _decoded:
            lines = body.decode("ascii").split("\n")
            if lines.pop():  # text after the last newline
                raise ValueError("its last line has no newline")
            pieces: dict = {}  # the texts its lines share, read once
            classes = tuple([_decode_canonical(line, pieces, key)
                             for line in lines])
            if not all(map(str.__lt__, lines, lines[1:])):
                raise ValueError("its lines are not in increasing order")
            _decoded[key, digest] = classes
    except ValueError as exc:
        warnings.warn(f"ignoring cache file {path}: {exc}; recomputing",
                      stacklevel=2)
        return None
    return _decoded[key, digest]


def _cache_store(path: str, key: tuple[int, int, int, bool],
                 classes: tuple[CanonicalGraph, ...]) -> None:
    """Write classes to path, the file of key, and keep them in memory under
    the key and the SHA-256 of the body written, so that this process never
    decodes the body it wrote."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    body = "".join(cg.encoding + "\n" for cg in classes).encode("ascii")
    digest = hashlib.sha256(body).hexdigest()
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_cache_header(path, body, digest) + b"\n" + body)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    _decoded[key, digest] = classes


def enumerate_stable_graphs(g: int, a: WeightDatum, m: int,
                            pure_only: bool = False) -> GraphClassSet:
    """All isomorphism classes of (g, a)-stable graphs with m edges.

    Results are complete, duplicate free, sorted by canonical encoding, and
    cached on disk (directory from TROPGC_CACHE, default ./.tropgc-cache);
    a cache file whose header does not match its name and body, or that
    holds a line that is not canonical or out of order, is recomputed with
    a warning.
    """
    if a.g != g:
        raise DomainError(f"weight datum has genus {a.g}, expected {g}")
    n = a.n
    if not (0 <= m <= max_edges(g, n)):
        raise DomainError(f"edge count {m} outside 0..{max_edges(g, n)}")
    path = _cache_path(g, n, m, pure_only, signature_hash(signature(a)))
    key = (g, n, m, pure_only)
    classes = _cache_load(path, key)
    if classes is None:
        classes = _generate(g, a, m, pure_only)
        _cache_store(path, key, classes)
    return GraphClassSet(classes)


GRAPH = "graph"
CELLULAR = "cellular"


def degree_range(g: int, n: int, kind: str) -> range:
    if kind == GRAPH:
        return range(-g, max_edges(g, n) - 2 * g + 1)
    if kind == CELLULAR:
        return range(-1, max_edges(g, n))
    raise ValueError(f"unknown complex kind {kind!r}")


def generator_basis(g: int, a: WeightDatum, degree: int,
                    kind: str = GRAPH) -> tuple[CanonicalGraph, ...]:
    """Ordered basis of nonzero generators in one homological degree.

    Graph-complex generators are pure graphs with degree + 2g edges;
    cellular generators are arbitrary stable graphs with degree + 1 edges.
    Classes with an odd edge automorphism are zero and excluded.
    """
    if degree not in degree_range(g, a.n, kind):
        raise DomainError(f"degree {degree} out of range for {kind}")
    if kind == GRAPH:
        m = degree + 2 * g
        pure = True
    else:
        m = degree + 1
        pure = False
    classes = enumerate_stable_graphs(g, a, m, pure_only=pure).classes
    return tuple(cg for cg in classes if not cg.has_odd_edge_automorphism)


def check_aligned(chain: list[WeightDatum] | tuple[WeightDatum, ...]) -> None:
    """Raise unless consecutive signatures are nested (Equal or Less)."""
    for p in range(len(chain) - 1):
        rel = compare_signatures(signature(chain[p]), signature(chain[p + 1]))
        if rel.relation not in ("Equal", "Less"):
            raise DomainError(
                f"chain not aligned: step {p + 1} -> {p + 2} compares as "
                f"{rel.relation} ({chain[p]} vs {chain[p + 1]})")


def filtration_levels(g: int, chain: list[WeightDatum] | tuple[WeightDatum, ...],
                      degree: int) -> dict[CanonicalGraph, int]:
    """Level of each graph-complex generator of the top chamber: the first
    chain index (1-based) at which the graph is stable."""
    if not chain:
        raise DomainError("empty weight chain")
    check_aligned(chain)
    basis = generator_basis(g, chain[-1], degree)
    return dict(zip(basis, _stability_levels(g, chain,
                                             [cg.graph for cg in basis])))
