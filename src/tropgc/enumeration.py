"""Exhaustive enumeration of stable graph isomorphism classes, with caching.

Raw generation happens only for the maximal (all-Plus) chamber, where
stability is the classical condition 2w(v) - 2 + |v|_E + #legs(v) > 0. It
builds the classes with m edges from those with m - 1 edges by
uncontracting one edge (split a vertex, or add a loop for a unit of
weight), from a one-vertex base; see _raw_enumerate_classical.

Any other weight datum filters the classical list through is_stable. This
is sound because entrywise-smaller weight data have nested stable-graph
sets, and it lets chamber-equal data share one cache entry: cache files are
keyed by (g, n, edge count, purity, signature hash) and store one canonical
graph encoding per line, after a header line with that key, the line count
and a SHA-256 of the body, so a truncated, damaged or misplaced file is
recomputed, not believed. The header is checked on every load; the body of
a file that passes is decoded and checked line by line once per process (a
line that is not a canonical encoding also means recomputing), and its
classes are kept in memory under the body's SHA-256, so identical bytes are
never decoded twice. A body this process wrote is kept in memory when it is
written, and is not decoded at all.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .chambers import (ChamberSignature, DomainError, WeightDatum,
                       compare_signatures, signature)
from .graphs import (CanonicalGraph, MarkedGraph, Parts, _canonicalize_parts,
                     canonicalize, decode_graph, is_stable)

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

    g: int
    n: int
    m: int
    pure_only: bool
    signature_hash: str
    classes: tuple[CanonicalGraph, ...]


def max_edges(g: int, n: int) -> int:
    return 3 * g - 3 + n


def _uncontractions(cg: CanonicalGraph) -> Iterable[Parts]:
    """The (weights, edges, legs) of the stable graphs with one more edge
    than cg.graph that contract to it, each edge written low end first.

    One vertex v per automorphism orbit gets a loop in exchange for a unit
    of weight, or is split: its weight is shared in every way, and a subset
    of its edge ends and legs, never the first, moves to a new vertex joined
    to v, so a subset and its complement are not both tried.
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
        items += [2 * m + i for i, x in enumerate(legs) if x == v]
        rest = items[1:]
        for mask in range(1 << len(rest)):
            moved = {item for j, item in enumerate(rest) if mask >> j & 1}
            stay = len(items) - len(moved)
            for w_new in range(weights[v] + 1):
                w_old = weights[v] - w_new
                # 2w - 2 + |v|_E + #legs(v) > 0, counting the new edge
                if 2 * w_old + stay <= 1 or 2 * w_new + len(moved) <= 1:
                    continue
                split_edges = []
                for e, (u, x) in enumerate(edges):
                    if 2 * e + 1 in moved:
                        x = new
                    # new is the highest vertex, so a moved first end
                    # becomes the second
                    split_edges.append((x, new) if 2 * e in moved else (u, x))
                split_edges.append((v, new))
                split_legs = tuple(new if 2 * m + i in moved else x
                                   for i, x in enumerate(legs))
                yield (weights[:v] + (w_old,) + weights[v + 1:] + (w_new,),
                       tuple(split_edges), split_legs)


def _raw_enumerate_classical(g: int, n: int, m: int, pure_only: bool) -> tuple[CanonicalGraph, ...]:
    """All classes stable for the weight datum (1, ..., 1), genus g, m edges.

    Contracting an edge keeps a graph stable, and contracting a non-loop
    edge keeps it pure; a graph whose edges are all loops has one vertex.
    So above the base level, the classes with m edges are the canonical
    forms of the uncontractions of the classes with m - 1 edges, taken from
    enumerate_stable_graphs (and its cache). The base is one vertex with
    every leg: of weight g at m = 0 for all graphs, and for pure graphs the
    rose of weight 0 with g loops at m = g, below which there are none. A
    pure graph has weight 0 everywhere, so its uncontractions are pure.
    """
    base = g if pure_only else 0
    if m < base:
        return ()
    if m == base:
        vertex = MarkedGraph((g - m,), ((0, 0),) * m, (0,) * n)
        return (canonicalize(vertex)[0],)
    below = enumerate_stable_graphs(g, _classical_datum(g, n), m - 1,
                                    pure_only)
    found: dict[MarkedGraph, CanonicalGraph] = {}
    for parent in below.classes:
        for child in _uncontractions(parent):
            cg, _ = _canonicalize_parts(*child)
            found.setdefault(cg.graph, cg)
    return tuple(sorted(found.values(), key=lambda cg: cg.encoding))


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
            _decoded[digest] = tuple(
                _decode_canonical(line)
                for line in body.decode("ascii").splitlines())
    except ValueError as exc:
        warnings.warn(f"ignoring cache file {path}: {exc}; recomputing",
                      stacklevel=2)
        return None
    return _decoded[digest]


def _decode_canonical(line: str) -> CanonicalGraph:
    cg, _ = canonicalize(decode_graph(line))
    if cg.encoding != line:
        raise ValueError(f"cache entry is not canonical: {line!r}")
    return cg


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
    sig = signature(a)
    sig_hash = signature_hash(sig)
    path = _cache_path(g, n, m, pure_only, sig_hash)
    cached = _cache_load(path)
    if cached is not None:
        return GraphClassSet(g, n, m, pure_only, sig_hash, cached)
    if all(sig.signs):
        classes = _raw_enumerate_classical(g, n, m, pure_only)
    else:
        top = enumerate_stable_graphs(g, _classical_datum(g, n), m, pure_only)
        classes = tuple(cg for cg in top.classes if is_stable(cg.graph, g, a))
    _cache_store(path, classes)
    return GraphClassSet(g, n, m, pure_only, sig_hash, classes)


def _classical_datum(g: int, n: int) -> WeightDatum:
    return WeightDatum(g, (Fraction(1),) * n)


GRAPH_COMPLEX = "graph_complex"
CELLULAR = "cellular"


def degree_range(g: int, n: int, kind: str) -> range:
    if kind == GRAPH_COMPLEX:
        return range(-g, max_edges(g, n) - 2 * g + 1)
    if kind == CELLULAR:
        return range(-1, max_edges(g, n))
    raise ValueError(f"unknown complex kind {kind!r}")


def generator_basis(g: int, a: WeightDatum, degree: int,
                    kind: str = GRAPH_COMPLEX) -> tuple[CanonicalGraph, ...]:
    """Ordered basis of nonzero generators in one homological degree.

    Graph-complex generators are pure graphs with degree + 2g edges;
    cellular generators are arbitrary stable graphs with degree + 1 edges.
    Classes with an odd edge automorphism are zero and excluded.
    """
    if degree not in degree_range(g, a.n, kind):
        raise DomainError(f"degree {degree} out of range for {kind}")
    if kind == GRAPH_COMPLEX:
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
    levels: dict[CanonicalGraph, int] = {}
    for cg in basis:
        for p, a in enumerate(chain, start=1):
            if is_stable(cg.graph, g, a):
                levels[cg] = p
                break
        else:
            raise AssertionError("generator unstable at the top of the chain")
    return levels
