"""Exhaustive enumeration of stable graph isomorphism classes, with caching.

Every weight datum A is served by one routine, _generate: it builds the
A-stable classes with m edges from the A-stable classes with m - 1 edges by
uncontracting one edge (split a vertex, or add a loop for a unit of
weight), from a one-vertex base. Each class is built from its canonical
parents only, after McKay ("Isomorph-free exhaustive generation", J.
Algorithms 1998): an uncontraction is kept only if its new edge has the
largest invariant (is non-loop, sorted pair of endpoint colours) of all its
edges, a vertex's colour being its (weight, edge degree, markings). That
test reads only the candidate's parts, so a rejected candidate is never
canonicalized and never enters the canonical memo.

Stability depends on A only through its chamber, so chamber-equal data
share one cache entry: cache files are keyed by (g, n, edge count, purity,
signature hash) and store one canonical graph encoding per line, after a
header line with that key, the line count and a SHA-256 of the body, so a
truncated, damaged or misplaced file is recomputed, not believed. The
header is checked on every load; the body of a file that passes is checked
line by line once per process, in one strict pass per line
(graphs._decode_canonical): the line must be in the grammar that
encode_graph writes (no sign, space, underscore, leading zero or empty
item), with markings 1..k in order and a genus prefix equal to b1 plus the
total weight; the parts it names must be a valid graph (indices in range,
connected) and equal their own canonical form, confirmed in place when no
two vertices share a colour. A line that fails any of these, or a body that
does not end in a newline, makes the file recomputed. An accepted line is
then its form's encoding, and is kept as that. Its classes are kept in
memory under the body's SHA-256, so identical bytes are never decoded
twice. A body this process wrote is kept in memory when it is written, and
is not decoded at all.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import warnings
from dataclasses import dataclass
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
    """The (weights, edges, legs) of the A-stable graphs with one more edge
    than cg.graph that contract to it, each edge written low end first, for
    the weight datum A with integer subset sums (sums, den)
    (WeightDatum.subset_sums).

    One vertex v per automorphism orbit gets a loop in exchange for a unit
    of weight, which keeps its stability total, or is split: its weight is
    shared in every way, and a subset of its edge ends and legs, never the
    first, moves to a new vertex joined to v, so a subset and its complement
    are not both tried. A split is rejected before its parts are built.
    """
    graph = cg.graph
    weights, edges, legs = graph.weights, graph.edges, graph.legs
    new = graph.num_vertices
    # items: edge end k of edge e is 2e + k; marking i is 2m + i
    m = len(edges)
    for v in range(graph.num_vertices):
        if any(alpha[v] < v for alpha in cg.automorphism_generators):
            continue  # another vertex of the orbit is split instead
        if weights[v] > 0:
            yield (weights[:v] + (weights[v] - 1,) + weights[v + 1:],
                   edges + ((v, v),), legs)
        items = [2 * e + k for e, ends in enumerate(edges)
                 for k in (0, 1) if ends[k] == v]
        # a vertex is A-stable when the shares of its items (den per edge
        # end, sums[1 << i] for marking i) exceed (2 - 2w) * den, so a side
        # of the new edge whose items share at most den needs weight
        shares = [den] * len(items)
        for i, x in enumerate(legs):
            if x == v:
                items.append(2 * m + i)
                shares.append(sums[1 << i])
        total = sum(shares)
        rest = items[1:]
        moved_shares = [0]  # by mask over rest
        for share in shares[1:]:
            moved_shares += [s + share for s in moved_shares]
        for mask, s in enumerate(moved_shares):
            new_weights = range(s <= den, weights[v] + (total - s > den))
            if not new_weights:
                continue
            moved = {item for j, item in enumerate(rest) if mask >> j & 1}
            split_edges = []
            for e, (u, x) in enumerate(edges):
                if 2 * e + 1 in moved:
                    x = new
                # new is the highest vertex, so a moved first end becomes
                # the second
                split_edges.append((x, new) if 2 * e in moved else (u, x))
            split_edges.append((v, new))
            child_edges = tuple(split_edges)
            child_legs = tuple([new if 2 * m + i in moved else x
                                for i, x in enumerate(legs)])
            for w_new in new_weights:
                yield (weights[:v] + (weights[v] - w_new,) + weights[v + 1:]
                       + (w_new,), child_edges, child_legs)


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
    has the largest invariant of all its edges (_new_edge_is_largest);
    ties go to the dedupe by canonical form. No class C above the base is
    lost. Let e be an edge of C of largest invariant; a pure C has more
    than one vertex, so there e is not a loop. Contracting e gives an
    a-stable class P with one edge fewer, pure if C is, and
    _uncontractions(P) yields a child isomorphic to C by an isomorphism
    that takes the child's new edge to e: splitting one vertex per
    automorphism orbit, keeping the first item at the old vertex and trying
    every weight split each only trade a (child, new edge) pair for an
    isomorphic one, and the child is a-stable as C is. An isomorphism keeps
    edge invariants, so that child passes. A loop's invariant is below
    every non-loop edge's, so for pure graphs the test picks the largest
    among the non-loop edges, the ones whose contraction keeps a graph pure.
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
            if not _new_edge_is_largest(*child):
                continue
            cg, _ = _canonicalize_parts(*child)
            found.setdefault(cg.graph, cg)
    return tuple(sorted(found.values(), key=lambda cg: cg.encoding))


def _edge_invariant(colors: Sequence[tuple], u: int, v: int) -> tuple:
    """(is non-loop, sorted pair of endpoint colours) of an edge (u, v),
    given each vertex's colour (_vertex_colors). An isomorphism of graphs
    keeps vertex colours, so it keeps the invariant of every edge."""
    cu, cv = colors[u], colors[v]
    return (u != v, (cu, cv) if cu <= cv else (cv, cu))


def _new_edge_is_largest(weights: tuple[int, ...], edges: tuple[Edge, ...],
                         legs: tuple[int, ...]) -> bool:
    """Whether the last edge, the one an uncontraction added, has the
    largest invariant (_edge_invariant) of all edges, ties included.

    A loop's invariant is below that of any non-loop edge, and a graph whose
    edges are all loops has one vertex, so a new loop is largest exactly
    when the graph has one vertex; no colour is computed for it.
    """
    u, v = edges[-1]
    if u == v:
        return len(weights) == 1
    colors = _vertex_colors(weights, edges, legs)
    top = _edge_invariant(colors, u, v)
    for x, y in edges:
        if x != y and _edge_invariant(colors, x, y) > top:
            return False
    return True


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


# Classes of every cache body decoded or written so far, by its SHA-256.
_decoded: dict[str, tuple[CanonicalGraph, ...]] = {}


def _cache_load(path: str) -> Optional[tuple[CanonicalGraph, ...]]:
    """Classes stored at path; None, with a warning, when the file's header
    is missing or does not match its name and body, or a line is not a
    canonical encoding, so the caller recomputes."""
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
        if digest not in _decoded:
            lines = body.decode("ascii").split("\n")
            if lines.pop():  # text after the last newline
                raise ValueError("its last line has no newline")
            _decoded[digest] = tuple(map(_decode_canonical, lines))
    except ValueError as exc:
        warnings.warn(f"ignoring cache file {path}: {exc}; recomputing",
                      stacklevel=2)
        return None
    return _decoded[digest]


def _cache_store(path: str, classes: tuple[CanonicalGraph, ...]) -> None:
    """Write classes to path, and keep them in memory under the SHA-256 of
    the body written, so that this process never decodes the body it wrote."""
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
    _decoded[digest] = classes


def enumerate_stable_graphs(g: int, a: WeightDatum, m: int,
                            pure_only: bool = False) -> GraphClassSet:
    """All isomorphism classes of (g, a)-stable graphs with m edges.

    Results are complete, duplicate free, sorted by canonical encoding, and
    cached on disk (directory from TROPGC_CACHE, default ./.tropgc-cache);
    a cache file whose header does not match its name and body, or that
    holds a line that is not canonical, is recomputed with a warning.
    """
    if a.g != g:
        raise DomainError(f"weight datum has genus {a.g}, expected {g}")
    n = a.n
    if not (0 <= m <= max_edges(g, n)):
        raise DomainError(f"edge count {m} outside 0..{max_edges(g, n)}")
    path = _cache_path(g, n, m, pure_only, signature_hash(signature(a)))
    classes = _cache_load(path)
    if classes is None:
        classes = _generate(g, a, m, pure_only)
        _cache_store(path, classes)
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
