"""Weighted marked multigraphs and their canonical forms.

A MarkedGraph stores vertex weights, an ordered list of edges (unordered
endpoint pairs; loops allowed; the list order is the graph's edge order),
and a placement of markings 1..n on vertices (each marking is a leg).
Connectivity is required.

Canonical labeling works by brute-force minimization over vertex
relabelings that respect the (weight, edge degree, marking multiset) color
classes; graphs here have at most a handful of vertices, so the minimum is
exact and the full vertex automorphism group falls out as the stabilizer.
Besides vertex automorphisms, a swap of two parallel edges (or of two loops
at one vertex) induces an odd edge transposition, while flipping the two
half-edges of a single loop induces the identity on edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from typing import Sequence

from .chambers import DomainError, WeightDatum

Edge = tuple[int, int]
Permutation = tuple[int, ...]


def is_connected(num_vertices: int, edges) -> bool:
    """Whether the edges join all vertices 0..num_vertices-1, by union-find."""
    if num_vertices == 1:
        return True
    parent = list(range(num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merged = 0
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            merged += 1
    return merged == num_vertices - 1


@dataclass(frozen=True)
class MarkedGraph:
    """Connected weighted multigraph with ordered edges and marked legs."""

    weights: tuple[int, ...]
    edges: tuple[Edge, ...]
    legs: tuple[int, ...]  # legs[i] = vertex carrying marking i + 1

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        object.__setattr__(self, "edges",
                           tuple((min(u, v), max(u, v)) for u, v in self.edges))
        object.__setattr__(self, "legs", tuple(int(v) for v in self.legs))
        nv = len(self.weights)
        if nv < 1:
            raise ValueError("graph needs at least one vertex")
        if any(w < 0 for w in self.weights):
            raise ValueError("vertex weights must be nonnegative")
        for u, v in self.edges:
            if not (0 <= u < nv and 0 <= v < nv):
                raise ValueError(f"edge ({u},{v}) endpoint out of range")
        for v in self.legs:
            if not (0 <= v < nv):
                raise ValueError(f"leg vertex {v} out of range")
        if not is_connected(nv, self.edges):
            raise ValueError("graph must be connected")

    @property
    def num_vertices(self) -> int:
        return len(self.weights)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_legs(self) -> int:
        return len(self.legs)

    def edge_degree(self, v: int) -> int:
        """Number of edge half-edges at v; a loop contributes 2."""
        return sum((u == v) + (w == v) for u, w in self.edges)

    def is_loop(self, e: int) -> bool:
        u, v = self.edges[e]
        return u == v


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
    if not (0 <= e < graph.num_edges):
        raise ValueError(f"no edge with index {e}")
    u, v = graph.edges[e]
    rest = graph.edges[:e] + graph.edges[e + 1:]
    if u == v:
        weights = list(graph.weights)
        weights[u] += 1
        return MarkedGraph(tuple(weights), rest, graph.legs)
    # merge v into u; vertices above v shift down

    def remap(x: int) -> int:
        if x == v:
            return u
        return x - 1 if x > v else x

    weights = [w for i, w in enumerate(graph.weights) if i != v]
    weights[remap(u)] += graph.weights[v]
    new_edges = tuple((remap(x), remap(y)) for x, y in rest)
    new_legs = tuple(remap(x) for x in graph.legs)
    return MarkedGraph(tuple(weights), new_edges, new_legs)


def relabel_legs(graph: MarkedGraph, sigma: Sequence[int]) -> MarkedGraph:
    """Move markings so stability transforms along with the weight datum:
    the new marking j sits where marking sigma(j) used to sit."""
    n = graph.num_legs
    s = tuple(sigma)
    if sorted(s) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {sigma!r}")
    new_legs = tuple(graph.legs[s[j] - 1] for j in range(n))
    return MarkedGraph(graph.weights, graph.edges, new_legs)


@dataclass(frozen=True)
class CanonicalGraph:
    """A graph in canonical form plus its automorphism bookkeeping."""

    graph: MarkedGraph
    has_odd_edge_automorphism: bool
    automorphism_generators: tuple[Permutation, ...]

    @property
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


_canon_cache: dict[MarkedGraph, tuple[CanonicalGraph, Permutation]] = {}


def canonicalize(graph: MarkedGraph) -> tuple[CanonicalGraph, Permutation]:
    """Canonical form of a graph, plus the edge relabeling it entails.

    The returned edge_map sends the input edge order to the canonical
    (sorted) edge order: input edge k lands at position edge_map[k]. Its
    parity is well defined modulo automorphisms whenever
    has_odd_edge_automorphism is False.
    """
    cached = _canon_cache.get(graph)
    if cached is not None:
        return cached

    classes = _color_classes(graph)
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

    new_weights = [0] * nv
    ref = best_perms[0]
    for old in range(nv):
        new_weights[ref[old]] = graph.weights[old]
    canon = MarkedGraph(tuple(new_weights), best_key[0], best_key[1])

    # Stabilizer of the canonical form = vertex automorphism group.
    inverse_ref = [0] * nv
    for old, new in enumerate(ref):
        inverse_ref[new] = old
    autos = set()
    for perm in best_perms:
        autos.add(tuple(perm[inverse_ref[p]] for p in range(nv)))
    autos.discard(tuple(range(nv)))
    generators = tuple(sorted(autos))

    has_odd = False
    edge_list = canon.edges
    if len(set(edge_list)) < len(edge_list):
        # swapping two parallel edges (or two loops at one vertex) is an
        # odd transposition of the edge set
        has_odd = True
    else:
        index = {edge: i for i, edge in enumerate(edge_list)}
        for alpha in generators:
            induced = []
            for u, v in edge_list:
                au, av = alpha[u], alpha[v]
                induced.append(index[(au, av) if au <= av else (av, au)])
            if _permutation_parity(induced) < 0:
                has_odd = True
                break

    # Stable assignment of input edges to canonical slots: sort by mapped
    # edge, breaking ties by input position.
    mapped_ref = []
    for k, (u, v) in enumerate(graph.edges):
        pu, pv = ref[u], ref[v]
        mapped_ref.append(((pu, pv) if pu <= pv else (pv, pu), k))
    edge_map = [0] * len(mapped_ref)
    for slot, (_, k) in enumerate(sorted(mapped_ref)):
        edge_map[k] = slot

    result = (CanonicalGraph(canon, has_odd, generators), tuple(edge_map))
    _canon_cache[graph] = result
    if canon != graph:
        _canon_cache.setdefault(canon, (result[0], tuple(range(len(edge_list)))))
    return result


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
        legs_map = {}
        if l_body:
            for item in l_body.split(","):
                m, v = item.split("@")
                legs_map[int(m)] = int(v)
        legs = tuple(legs_map[i + 1] for i in range(len(legs_map)))
        graph = MarkedGraph(weights, tuple(edges), legs)
    except (ValueError, KeyError) as exc:
        raise ValueError(f"bad graph encoding: {text!r}") from exc
    if genus(graph) != int(g_part):
        raise ValueError(f"genus prefix {g_part} does not match graph in {text!r}")
    return graph
