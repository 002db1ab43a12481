"""Weighted marked multigraphs and their canonical forms.

A MarkedGraph stores vertex weights, an ordered list of edges (unordered
endpoint pairs; loops allowed; the list order is the graph's edge order),
and a placement of markings 1..n on vertices (each marking is a leg).
Connectivity is required.

Every constructed graph, including each contraction, uncontraction and
canonical form, is normalized and validated once, in one pass.

Canonical labeling works by brute-force minimization over vertex
relabelings that respect the (weight, edge degree, marking multiset) color
classes; graphs here have at most a handful of vertices, so the minimum is
exact and the full vertex automorphism group falls out as the stabilizer.
When every color class is a single vertex, which is most graphs with
markings, the sorted colors already fix the one relabeling and the group is
trivial, so no search runs. Besides vertex automorphisms, a swap of two
parallel edges (or of two loops at one vertex) induces an odd edge
transposition, while flipping the two half-edges of a single loop induces
the identity on edges. A canonical graph's text encoding is computed at
most once.

Canonical forms are memoized by the (weights, edges, legs) tuples of
validated graphs. Contractions and uncontractions are looked up by their
parts first, and a graph is built (and validated) only on a miss; a form is
likewise looked up before it is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product
from typing import Sequence

from .chambers import DomainError, WeightDatum

Edge = tuple[int, int]
Permutation = tuple[int, ...]
Parts = tuple[tuple[int, ...], tuple[Edge, ...], tuple[int, ...]]


def is_connected(num_vertices: int, edges) -> bool:
    """Whether the edges join all vertices 0..num_vertices-1, by union-find."""
    parent = list(range(num_vertices))
    merged = 0
    for u, v in edges:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            merged += 1
    return merged == num_vertices - 1


@dataclass(frozen=True)
class MarkedGraph:
    """Connected weighted multigraph with ordered edges and marked legs."""

    weights: tuple[int, ...]
    edges: tuple[Edge, ...]
    legs: tuple[int, ...]  # legs[i] = vertex carrying marking i + 1

    def __post_init__(self):
        weights = tuple(map(int, self.weights))
        edges = tuple([(u, v) if u <= v else (v, u) for u, v in self.edges])
        legs = tuple(map(int, self.legs))
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "legs", legs)
        nv = len(weights)
        if nv < 1:
            raise ValueError("graph needs at least one vertex")
        if min(weights) < 0:
            raise ValueError("vertex weights must be nonnegative")
        if edges:
            lows, highs = zip(*edges)
            if min(lows) < 0 or max(highs) >= nv:
                u, v = next(e for e in edges if e[0] < 0 or e[1] >= nv)
                raise ValueError(f"edge ({u},{v}) endpoint out of range")
        if legs and (min(legs) < 0 or max(legs) >= nv):
            v = next(x for x in legs if not 0 <= x < nv)
            raise ValueError(f"leg vertex {v} out of range")
        if not is_connected(nv, edges):
            raise ValueError("graph must be connected")

    @property
    def num_vertices(self) -> int:
        return len(self.weights)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge_degree(self, v: int) -> int:
        """Number of edge half-edges at v; a loop contributes 2."""
        return sum((u == v) + (w == v) for u, w in self.edges)


def genus(graph: MarkedGraph) -> int:
    """First Betti number plus the total vertex weight."""
    b1 = graph.num_edges - graph.num_vertices + 1
    return b1 + sum(graph.weights)


def is_pure(graph: MarkedGraph) -> bool:
    return all(w == 0 for w in graph.weights)


def has_loops(graph: MarkedGraph) -> bool:
    return any(u == v for u, v in graph.edges)


def is_stable(graph: MarkedGraph, g: int, a: WeightDatum) -> bool:
    """Every vertex must satisfy 2w(v) - 2 + |v|_E + |v|_A > 0."""
    if len(graph.legs) != a.n:
        raise DomainError("weight datum length differs from leg count")
    if genus(graph) != g:
        raise DomainError(f"graph has genus {genus(graph)}, expected {g}")
    for v in range(graph.num_vertices):
        total = 2 * graph.weights[v] - 2 + graph.edge_degree(v)
        for i, lv in enumerate(graph.legs):
            if lv == v:
                total += a.entries[i]
        if total <= 0:
            return False
    return True


def contract_edge(graph: MarkedGraph, e: int) -> MarkedGraph:
    """Contract edge e: merge endpoints adding weights, or absorb a loop
    into a weight increment. Genus is preserved; edge order is inherited."""
    return MarkedGraph(*_contracted_parts(graph, e))


def _contracted_parts(graph: MarkedGraph, e: int) -> Parts:
    """The (weights, edges, legs) of contract_edge(graph, e), each edge
    written low end first, as a constructed graph stores it."""
    if not (0 <= e < graph.num_edges):
        raise ValueError(f"no edge with index {e}")
    u, v = graph.edges[e]
    rest = graph.edges[:e] + graph.edges[e + 1:]
    weights = list(graph.weights)
    if u == v:
        weights[u] += 1
        return tuple(weights), rest, graph.legs
    # merge v into u (u < v); vertices above v shift down, so only an edge
    # end at v can land below the other end
    weights[u] += weights.pop(v)
    remap = [x - (x > v) for x in range(graph.num_vertices)]
    remap[v] = u
    new_edges = []
    for x, y in rest:
        x, y = remap[x], remap[y]
        new_edges.append((x, y) if x <= y else (y, x))
    return (tuple(weights), tuple(new_edges),
            tuple(map(remap.__getitem__, graph.legs)))


@dataclass(frozen=True)
class CanonicalGraph:
    """A graph in canonical form plus its automorphism bookkeeping."""

    graph: MarkedGraph
    has_odd_edge_automorphism: bool
    automorphism_generators: tuple[Permutation, ...]

    @cached_property
    def encoding(self) -> str:
        return encode_graph(self.graph)


def _color_classes(graph: MarkedGraph) -> list[list[int]]:
    """Vertices grouped by (weight, edge degree, marking multiset), sorted."""
    degrees = [0] * graph.num_vertices
    for u, v in graph.edges:
        degrees[u] += 1
        degrees[v] += 1
    markings: list[list[int]] = [[] for _ in graph.weights]
    for i, v in enumerate(graph.legs):
        markings[v].append(i + 1)
    colors: dict[tuple, list[int]] = {}
    for v, w in enumerate(graph.weights):
        colors.setdefault((w, degrees[v], tuple(markings[v])), []).append(v)
    return [colors[k] for k in sorted(colors)]


def _permutation_parity(perm: Sequence[int]) -> int:
    """+1 for even, -1 for odd."""
    seen = [False] * len(perm)
    parity = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            parity = -parity
    return parity


# Canonical form and edge map of every graph canonicalized so far, keyed by
# the (weights, edges, legs) of that validated graph: its own field tuples.
_canon_cache: dict[Parts, tuple[CanonicalGraph, Permutation]] = {}


def _canonicalize_parts(weights: tuple[int, ...], edges: tuple[Edge, ...],
                        legs: tuple[int, ...]
                        ) -> tuple[CanonicalGraph, Permutation]:
    """canonicalize(MarkedGraph(weights, edges, legs)), with the graph built
    only on a memo miss. Only validated graphs are memoized, so parts that
    hit describe a valid graph, and parts that miss are validated by the
    constructor."""
    cached = _canon_cache.get((weights, edges, legs))
    if cached is not None:
        return cached
    return canonicalize(MarkedGraph(weights, edges, legs))


def canonicalize(graph: MarkedGraph) -> tuple[CanonicalGraph, Permutation]:
    """Canonical form of a graph, plus the edge relabeling it entails.

    The returned edge_map sends the input edge order to the canonical
    (sorted) edge order: input edge k lands at position edge_map[k]. Its
    parity is well defined modulo automorphisms whenever
    has_odd_edge_automorphism is False.
    """
    key = (graph.weights, graph.edges, graph.legs)
    cached = _canon_cache.get(key)
    if cached is not None:
        return cached

    classes = _color_classes(graph)
    nv = graph.num_vertices
    if len(classes) == nv:
        # Singleton colors: one arrangement, and only the identity fixes it.
        ref = [0] * nv  # old vertex -> new position
        for new, (old,) in enumerate(classes):
            ref[old] = new
        generators: tuple[Permutation, ...] = ()
    else:
        ref, generators = _minimal_relabeling(graph, classes)

    # Stable assignment of input edges to canonical slots: sort by mapped
    # edge, breaking ties by input position.
    mapped = []
    for k, (u, v) in enumerate(graph.edges):
        pu, pv = ref[u], ref[v]
        mapped.append(((pu, pv) if pu <= pv else (pv, pu), k))
    mapped.sort()
    edge_map = [0] * len(mapped)
    for slot, (_, k) in enumerate(mapped):
        edge_map[k] = slot
    new_weights = [0] * nv
    for old, w in enumerate(graph.weights):
        new_weights[ref[old]] = w
    form = (tuple(new_weights), tuple([e for e, _ in mapped]),
            tuple(map(ref.__getitem__, graph.legs)))
    known = _canon_cache.get(form)
    if known is None:
        # the input itself when already canonical (validated when it was
        # built), else the form is built and validated once
        canon = graph if form == key else MarkedGraph(*form)
        cg = CanonicalGraph(canon, _has_odd_edge_automorphism(canon.edges,
                                                              generators),
                            generators)
        _canon_cache[(canon.weights, canon.edges, canon.legs)] = (
            cg, tuple(range(len(edge_map))))
    else:
        cg = known[0]  # the same form, reached from another input
    result = (cg, tuple(edge_map))
    _canon_cache[key] = result
    return result


def _has_odd_edge_automorphism(edges: tuple[Edge, ...],
                               generators: tuple[Permutation, ...]) -> bool:
    """Whether some automorphism of a canonical graph with these edges and
    vertex automorphisms permutes its edges oddly."""
    if len(set(edges)) < len(edges):
        # swapping two parallel edges (or two loops at one vertex) is an
        # odd transposition of the edge set
        return True
    index = {edge: i for i, edge in enumerate(edges)}
    for alpha in generators:
        induced = []
        for u, v in edges:
            au, av = alpha[u], alpha[v]
            induced.append(index[(au, av) if au <= av else (av, au)])
        if _permutation_parity(induced) < 0:
            return True
    return False


def _minimal_relabeling(graph: MarkedGraph, classes: list[list[int]]
                        ) -> tuple[Permutation, tuple[Permutation, ...]]:
    """Brute force over the arrangements of the color classes: the first
    relabeling (old vertex -> new position) reaching the least (edges, legs)
    key, and the vertex automorphisms of that form, identity excluded."""
    starts = []
    pos = 0
    for cls in classes:
        starts.append(pos)
        pos += len(cls)
    nv = graph.num_vertices

    best_key = None
    best_perms: list[tuple[int, ...]] = []
    for arrangement in product(*(permutations(cls) for cls in classes)):
        relabel = [0] * nv  # old vertex -> new position
        for cls_members, start in zip(arrangement, starts):
            for offset, old in enumerate(cls_members):
                relabel[old] = start + offset
        mapped = []
        for u, v in graph.edges:
            pu, pv = relabel[u], relabel[v]
            mapped.append((pu, pv) if pu <= pv else (pv, pu))
        key = (tuple(sorted(mapped)), tuple(relabel[x] for x in graph.legs))
        if best_key is None or key < best_key:
            best_key = key
            best_perms = [tuple(relabel)]
        elif key == best_key:
            best_perms.append(tuple(relabel))

    # Stabilizer of the canonical form = vertex automorphism group.
    ref = best_perms[0]
    inverse_ref = [0] * nv
    for old, new in enumerate(ref):
        inverse_ref[new] = old
    autos = set()
    for perm in best_perms:
        autos.add(tuple(perm[inverse_ref[p]] for p in range(nv)))
    autos.discard(tuple(range(nv)))
    return ref, tuple(sorted(autos))


def edge_map_sign(edge_map: Sequence[int]) -> int:
    return _permutation_parity(edge_map)


def encode_graph(graph: MarkedGraph) -> str:
    """Canonical text encoding, e.g. "1;0;edges=(0-0);legs=(1@0,2@0,3@0)"."""
    w = ",".join(str(x) for x in graph.weights)
    e = ",".join(f"{u}-{v}" for u, v in graph.edges)
    l = ",".join(f"{i + 1}@{v}" for i, v in enumerate(graph.legs))
    return f"{genus(graph)};{w};edges=({e});legs=({l})"


def decode_graph(text: str) -> MarkedGraph:
    """Inverse of encode_graph; validates the genus prefix."""
    try:
        g_part, w_part, e_part, l_part = text.strip().split(";")
        if not (e_part.startswith("edges=(") and e_part.endswith(")")):
            raise ValueError
        if not (l_part.startswith("legs=(") and l_part.endswith(")")):
            raise ValueError
        weights = tuple(int(x) for x in w_part.split(","))
        e_body = e_part[len("edges=("):-1]
        edges = []
        if e_body:
            for item in e_body.split(","):
                u, v = item.split("-")
                edges.append((int(u), int(v)))
        l_body = l_part[len("legs=("):-1]
        pairs = [item.split("@") for item in l_body.split(",")] if l_body else []
        legs_map = {int(m): int(v) for m, v in pairs}
        # markings are 1..k, each exactly once, in any order
        if sorted(legs_map) != list(range(1, len(pairs) + 1)):
            raise ValueError
        legs = tuple(legs_map[i + 1] for i in range(len(pairs)))
        graph = MarkedGraph(weights, tuple(edges), legs)
        prefix = int(g_part)
    except ValueError as exc:
        raise ValueError(f"bad graph encoding: {text!r}") from exc
    if genus(graph) != prefix:
        raise ValueError(f"genus prefix {g_part} does not match graph in {text!r}")
    return graph
