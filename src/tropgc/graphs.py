"""Weighted marked multigraphs and their canonical forms.

A MarkedGraph is the tuple of its vertex weights, an ordered list of edges
(unordered endpoint pairs; loops allowed; the list order is the graph's
edge order) and a placement of markings 1..n on vertices (each marking is
a leg), so it hashes and compares as those parts. Connectivity is
required.

Every constructed graph is normalized and validated once, by one set of
checks in two parts. The head part (_checked_head) makes the weights and
edges tuples, writes each edge low end first and checks ints only, at least
one vertex, no negative weight, every edge end in range and connectivity;
the legs part (_on_head) checks that the legs are ints naming vertices. The
constructor runs both. Parts canonicalized without a graph get only a range
check before their relabeling (_vertex_colors); the other checks run when
their canonical form is built, once per form (_new_form). A form read from
a cache line runs only the legs part, since its head was checked once for
the whole body (_decode_canonical).

Canonical labeling works by brute-force minimization over vertex
relabelings that respect the (weight, edge degree, marking multiset) color
classes; graphs here have at most a handful of vertices, so the minimum is
exact and the full vertex automorphism group falls out as the stabilizer.
When every color class is a single vertex, which is most graphs with
markings, the sorted colors already fix the one relabeling and the group is
trivial, so no search runs. Besides vertex automorphisms, a swap of two
parallel edges (or of two loops at one vertex) induces an odd edge
transposition, while flipping the two half-edges of a single loop induces
the identity on edges. A canonical graph's text encoding is set once, when
its form is built: the cache line the form was read from, or else written
then.

A generator of the graph complex is oriented by an order of its edges, so
canonicalization returns, with each form, the one thing a boundary term
needs of the edge relabeling: its sign, the parity of the permutation
taking the input edge order to the canonical one. A form reached by itself
has sign +1.

Canonical forms and their signs are memoized by (weights, edges, legs)
tuples: each form under its own validated graph, which is such a tuple, and
every other input under its range-checked parts, whose relabeling is a
validated form. Contractions, uncontractions and cache lines are
canonicalized from their parts: on a memo miss the color classes and the
relabeling are computed from the parts, and a graph is built (and
validated) only when the canonical form is new, once per form. Parts whose
colors strictly increase along the vertex order, with their edges sorted
low end first, are confirmed to be their own form in place, with no color
classes, relabeling or sort.

The line format is defined once, by its writer: _encode_parts joins the
head of a graph's parts (genus prefix, weights and edges; _head_text) and
their legs (_legs_text) with a ";". _decode_canonical splits a cache line
at its last ";", reads each piece leniently and accepts it only when its
writer writes the parts read back as that piece, so a line is accepted
exactly when _encode_parts writes it. The lines of one cache body share few
heads and legs texts, so a load passes one dict through all of them and
reads each text once. A head becomes a record (_Head) of its parts, which
passed the head part of the checks and match the file's key, their edge
degrees and what they decide of the in-place test, and the forms of its
lines hold its tuples. Every line's parts are still confirmed to be their
own canonical form (in place for a graph without tied colors), and the line
is kept as the form's encoding.

A contraction is two steps, which contract_edge composes: its weights and
edges, and the vertex map that moves its legs, depend only on the weights
and edges contracted and the edge index (_contracted_shape); then the legs
are moved (_moved_legs). So boundary assembly computes each such shape once
per boundary and maps only the legs of each generator.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import chain, permutations, product
from typing import Iterable, Optional, Sequence

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


class MarkedGraph(tuple):
    """Connected weighted multigraph with ordered edges and marked legs.

    A graph is the tuple (weights, edges, legs), legs[i] being the vertex
    that carries marking i + 1, so it hashes and compares as those parts.
    """

    __slots__ = ()

    weights = property(operator.itemgetter(0))
    edges = property(operator.itemgetter(1))
    legs = property(operator.itemgetter(2))

    def __new__(cls, weights: Iterable[int], edges: Iterable[Edge],
                legs: Iterable[int]) -> MarkedGraph:
        return _on_head(*_checked_head(weights, edges), legs)

    def __reduce__(self):
        # every pickle protocol and copy rebuild a graph by the constructor
        return MarkedGraph, tuple(self)

    def __repr__(self):
        return "MarkedGraph(weights=%r, edges=%r, legs=%r)" % self


def _not_int(x) -> TypeError:
    # int() would read 1.5, Fraction(3, 2) and True as 1
    return TypeError(f"weights, edge ends and legs must be ints, not {x!r}")


def _checked_head(weights: Iterable[int], edges: Iterable[Edge]
                  ) -> tuple[tuple[int, ...], tuple[Edge, ...]]:
    """The head part of the constructor's checks, those that depend on the
    weights and edges alone: ints only, at least one vertex, no negative
    weight, every edge end in range and connectivity. Returns the weights
    and the edges, each written low end first, as tuples."""
    weights, edges = tuple(weights), tuple(edges)
    for x in chain(weights, chain.from_iterable(edges)):
        if type(x) is not int:
            raise _not_int(x)
    edges = tuple([(u, v) if u <= v else (v, u) for u, v in edges])
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
    if not is_connected(nv, edges):
        raise ValueError("graph must be connected")
    return weights, edges


def _on_head(weights: tuple[int, ...], edges: tuple[Edge, ...],
             legs: Iterable[int]) -> MarkedGraph:
    """The graph of a head that passed _checked_head, as it returned it, and
    these legs, after the legs part of the constructor's checks: ints only,
    each naming a vertex. The graph holds the head's own tuples."""
    legs = tuple(legs)
    for x in legs:
        if type(x) is not int:
            raise _not_int(x)
    nv = len(weights)
    if legs and (min(legs) < 0 or max(legs) >= nv):
        v = next(x for x in legs if not 0 <= x < nv)
        raise ValueError(f"leg vertex {v} out of range")
    return tuple.__new__(MarkedGraph, (weights, edges, legs))


@dataclass(frozen=True, slots=True)
class _Head:
    """The head (genus prefix, weights and edges) of a cache line, checked
    once for all the lines of a body that share it (_decode_canonical):

    - weights, edges: as read, and passed by _checked_head;
    - degrees: each vertex's edge degree, a loop counting twice;
    - ties: None when parts with this head are never their own form in
      place, since the edges are not written low end first and sorted or
      the (weight, degree) pairs decrease along the vertex order; else the
      vertices v whose pair equals that of v + 1, so that the colours
      strictly increase exactly when the markings do at each of them;
    - repeated: whether an edge repeats, which gives every form with this
      head and no vertex automorphism an odd edge automorphism
      (_has_odd_edge_automorphism).
    """

    weights: tuple[int, ...]
    edges: tuple[Edge, ...]
    degrees: list[int]
    ties: Optional[tuple[int, ...]]
    repeated: bool


def _head_record(weights: tuple[int, ...], edges: tuple[Edge, ...]) -> _Head:
    """The record of a head read from a cache line, once its parts have
    passed the head part of the constructor's checks (_checked_head)."""
    _checked_head(weights, edges)
    degrees = [0] * len(weights)
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    pairs = list(zip(weights, degrees))
    ties = None
    if _in_order(edges) and all(map(operator.le, pairs, pairs[1:])):
        ties = tuple([v for v in range(len(pairs) - 1)
                      if pairs[v] == pairs[v + 1]])
    return _Head(weights, edges, degrees, ties, len(set(edges)) < len(edges))


def genus(graph: MarkedGraph) -> int:
    """First Betti number plus the total vertex weight."""
    weights, edges, _ = graph
    return len(edges) - len(weights) + 1 + sum(weights)


def is_pure(graph: MarkedGraph) -> bool:
    return all(w == 0 for w in graph.weights)


def has_loops(graph: MarkedGraph) -> bool:
    return any(u == v for u, v in graph.edges)


def is_stable(graph: MarkedGraph, g: int, a: WeightDatum) -> bool:
    """Every vertex must satisfy 2w(v) - 2 + |v|_E + |v|_A > 0."""
    return _stability_levels(g, (a,), (graph,)) == (1,)


def _stability_levels(g: int, chain: Sequence[WeightDatum],
                      graphs: Iterable[MarkedGraph]) -> tuple[int, ...]:
    """For each graph, the first index p (from 1) at which it is stable for
    chain[p - 1], or 0 if it is stable for none. DomainError unless each
    graph has genus g, then unless each datum has one entry per leg.

    A vertex is tested as (2w(v) - 2 + |v|_E) * den + sums[markings at v] > 0
    with each datum's integer subset sums, its totals built once per graph.
    """
    data = [a.subset_sums for a in chain]
    lengths = {a.n for a in chain}
    levels = []
    for graph in graphs:
        if genus(graph) != g:
            raise DomainError(f"graph has genus {genus(graph)}, expected {g}")
        if lengths != {len(graph.legs)}:
            raise DomainError("weight datum length differs from leg count")
        totals = [2 * w - 2 for w in graph.weights]
        for u, v in graph.edges:
            totals[u] += 1
            totals[v] += 1
        masks = [0] * len(totals)
        for i, v in enumerate(graph.legs):
            masks[v] |= 1 << i
        for p, (sums, den) in enumerate(data, 1):
            for total, mask in zip(totals, masks):
                if total * den + sums[mask] <= 0:
                    break
            else:
                levels.append(p)
                break
        else:
            levels.append(0)
    return tuple(levels)


def contract_edge(graph: MarkedGraph, e: int) -> MarkedGraph:
    """Contract edge e: merge endpoints adding weights, or absorb a loop
    into a weight increment. Genus is preserved; edge order is inherited."""
    weights, edges, remap = _contracted_shape(graph.weights, graph.edges, e)
    return MarkedGraph(weights, edges, _moved_legs(remap, graph.legs))


def _contracted_shape(weights: tuple[int, ...], edges: tuple[Edge, ...],
                      e: int) -> tuple[tuple[int, ...], tuple[Edge, ...],
                                       Optional[list[int]]]:
    """The weights and edges left by contracting edge e, and the vertex map
    (old vertex -> new) that takes the legs along, None for a loop, whose
    contraction moves no vertex."""
    if not (0 <= e < len(edges)):
        raise ValueError(f"no edge with index {e}")
    u, v = edges[e]
    rest = edges[:e] + edges[e + 1:]
    if u == v:
        return weights[:u] + (weights[u] + 1,) + weights[u + 1:], rest, None
    # merge v into u (u < v); vertices above v shift down, so only an edge
    # end at v can land below the other end
    remap = [*range(v), u, *range(v, len(weights) - 1)]
    new_edges = []
    for x, y in rest:
        x, y = remap[x], remap[y]
        new_edges.append((x, y) if x <= y else (y, x))
    return (weights[:u] + (weights[u] + weights[v],) + weights[u + 1:v]
            + weights[v + 1:], tuple(new_edges), remap)


def _moved_legs(remap: Optional[list[int]],
                legs: tuple[int, ...]) -> tuple[int, ...]:
    """The legs once a contraction's vertex map (_contracted_shape) moves
    their vertices."""
    return legs if remap is None else tuple(map(remap.__getitem__, legs))


@dataclass(slots=True, unsafe_hash=True)
class CanonicalGraph:
    """A graph in canonical form, its automorphism bookkeeping and its text
    encoding, which _new_form sets once, when it builds the form. Two
    classes are equal when their first three fields are."""

    graph: MarkedGraph
    has_odd_edge_automorphism: bool
    automorphism_generators: tuple[Permutation, ...]
    encoding: str = field(compare=False, repr=False)

    def __reduce__(self):
        return CanonicalGraph, (self.graph, self.has_odd_edge_automorphism,
                                self.automorphism_generators, self.encoding)


def _vertex_colors(weights: tuple[int, ...], edges: tuple[Edge, ...],
                   legs: tuple[int, ...]) -> Optional[list[tuple]]:
    """Each vertex's colour (weight, edge degree, marking tuple), a loop
    counting twice toward the degree; None when an edge end or a leg names
    no vertex 0..len(weights)-1."""
    nv = len(weights)
    degrees = [0] * nv
    for u, v in edges:
        if not (0 <= u < nv and 0 <= v < nv):
            return None
        degrees[u] += 1
        degrees[v] += 1
    markings = _markings(nv, legs)
    return None if markings is None else list(zip(weights, degrees, markings))


def _markings(nv: int, legs: tuple[int, ...]
              ) -> Optional[list[tuple[int, ...]]]:
    """The marking part of each colour (_vertex_colors) of a graph with nv
    vertices: the markings at each vertex, ascending; None when a leg names
    no vertex 0..nv-1."""
    markings: list[tuple[int, ...]] = [()] * nv
    for i, v in enumerate(legs, 1):
        if not 0 <= v < nv:
            return None
        markings[v] += (i,)
    return markings


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


# Canonical form and sign of every graph canonicalized so far, keyed by each
# form's own graph, which compares and hashes as its parts tuple, and by the
# range-checked (weights, edges, legs) of every other input whose relabeling
# is a validated form.
_canon_cache: dict[Parts, tuple[CanonicalGraph, int]] = {}


def canonicalize(graph: MarkedGraph) -> tuple[CanonicalGraph, int]:
    """Canonical form of a graph, plus the sign of the edge relabeling it
    entails.

    The sign is +1 or -1, the parity of the permutation that sends the
    input edge order to the canonical (sorted) edge order. It is well
    defined modulo automorphisms whenever has_odd_edge_automorphism is
    False.
    """
    return _canonicalize_parts(*graph)


def _canonicalize_parts(weights: tuple[int, ...], edges: tuple[Edge, ...],
                        legs: tuple[int, ...], line: Optional[str] = None,
                        head: Optional[_Head] = None
                        ) -> tuple[CanonicalGraph, int]:
    """canonicalize(MarkedGraph(weights, edges, legs)), without building
    that graph.

    The relabeling is computed from the parts once their vertex indices are
    checked to be in range (_vertex_colors); that is the only check the
    parts get here. A vertex bijection keeps weights, connectivity and
    vertex count, so the parts are valid exactly when their canonical form
    is: a form already memoized was validated when it was built, and a new
    form is built by the constructor, which runs every check, in _new_form.
    Parts with an index out of range go to the constructor, which raises its
    own error.

    line and head, given together by _decode_canonical, are the cache line
    the parts were read from and the record of its checked head (_Head),
    whose weights and edges are the parts' own. The edge degrees, the edge
    order test and the (weight, degree) part of the colour order are then
    the record's: only the legs are range-checked and placed (_markings),
    and their markings compared at the record's ties.

    The input edges are assigned to canonical slots by a stable sort, and
    the sign is the parity of the input positions in slot order: that
    permutation is the inverse of the assignment, which has the same
    parity.

    When the vertex colours strictly increase along the vertex order, each
    colour class is one vertex and sorting the classes keeps every vertex in
    place, so the relabeling is the identity; when the edges are also
    written low end first and sorted, the stable sort below keeps them in
    place too. Then the parts are their own form, the sign is +1, and
    neither is computed.

    The line becomes the encoding of the parts' form if the parts are that
    form and it is new; that form is then built on the head (_on_head).
    """
    key = (weights, edges, legs)
    cached = _canon_cache.get(key)
    if cached is not None:
        return cached
    if head is None:
        colors = _vertex_colors(weights, edges, legs)
        if colors is None:
            return canonicalize(MarkedGraph(weights, edges, legs))
        if all(map(operator.lt, colors, colors[1:])) and _in_order(edges):
            return _new_form(key, (), line)
    else:
        markings = _markings(len(weights), legs)
        if markings is None:
            return canonicalize(MarkedGraph(weights, edges, legs))
        if head.ties is not None and all([markings[v] < markings[v + 1]
                                          for v in head.ties]):
            return _new_form(key, (), line, head)
        colors = list(zip(weights, head.degrees, markings))
    groups: dict[tuple, list[int]] = {}
    for v, color in enumerate(colors):
        groups.setdefault(color, []).append(v)
    classes = [groups[color] for color in sorted(groups)]
    nv = len(weights)
    if len(classes) == nv:
        # Singleton colors: one arrangement, and only the identity fixes it.
        ref = [0] * nv  # old vertex -> new position
        for new, (old,) in enumerate(classes):
            ref[old] = new
        generators: tuple[Permutation, ...] = ()
    else:
        ref, generators = _minimal_relabeling(edges, legs, classes)

    # Stable assignment of input edges to canonical slots: sort by mapped
    # edge, breaking ties by input position.
    mapped = []
    for k, (u, v) in enumerate(edges):
        pu, pv = ref[u], ref[v]
        mapped.append(((pu, pv) if pu <= pv else (pv, pu), k))
    mapped.sort()
    new_weights = [0] * nv
    for old, w in enumerate(weights):
        new_weights[ref[old]] = w
    form = (tuple(new_weights), tuple([e for e, _ in mapped]),
            tuple(map(ref.__getitem__, legs)))
    # the form is memoized if another input reached it first
    read = (line, head) if form == key else (None, None)
    cg = (_canon_cache.get(form) or _new_form(form, generators, *read))[0]
    result = (cg, _permutation_parity([k for _, k in mapped]))
    _canon_cache[key] = result
    return result


def _in_order(edges: tuple[Edge, ...]) -> bool:
    """Whether edges are written low end first and sorted, as a canonical
    form's are."""
    return (all(u <= v for u, v in edges)
            and all(map(operator.le, edges, edges[1:])))


def _new_form(form: Parts, generators: tuple[Permutation, ...],
              line: Optional[str] = None, head: Optional[_Head] = None
              ) -> tuple[CanonicalGraph, int]:
    """The canonical graph with these parts and vertex automorphism
    generators, built and validated (once per form), memoized under its own
    graph with the sign +1 of a form reached by itself, and returned with
    it. Its encoding is line, the cache line the parts were read from, or
    else is written here.

    The constructor runs all of its checks here, the index ranges and the
    edge normalization too, although _canonicalize_parts has established
    both, so that every graph is built by one path. A form read from a
    cache line whose head passed the head part of those checks (head, a
    _Head with the form's weights and edges) runs only their legs part
    (_on_head), and holds the head's tuples. The encoding is written now,
    not on first use, since every form a program path reaches is a class,
    and classes are sorted and stored by their encodings.
    """
    if head is None:
        canon = MarkedGraph(*form)
        odd = _has_odd_edge_automorphism(canon.edges, generators)
    else:
        canon = _on_head(head.weights, head.edges, form[2])
        odd = (head.repeated if not generators
               else _has_odd_edge_automorphism(canon.edges, generators))
    cg = CanonicalGraph(canon, odd, generators,
                        _encode_parts(*canon) if line is None else line)
    result = (cg, 1)
    _canon_cache[canon] = result
    return result


def _has_odd_edge_automorphism(edges: tuple[Edge, ...],
                               generators: tuple[Permutation, ...]) -> bool:
    """Whether some automorphism of a canonical graph with these edges and
    vertex automorphisms permutes its edges oddly."""
    if len(set(edges)) < len(edges):
        # swapping two parallel edges (or two loops at one vertex) is an
        # odd transposition of the edge set
        return True
    if not generators:
        return False
    index = {edge: i for i, edge in enumerate(edges)}
    for alpha in generators:
        induced = []
        for u, v in edges:
            au, av = alpha[u], alpha[v]
            induced.append(index[(au, av) if au <= av else (av, au)])
        if _permutation_parity(induced) < 0:
            return True
    return False


def _minimal_relabeling(edges: tuple[Edge, ...], legs: tuple[int, ...],
                        classes: list[list[int]]
                        ) -> tuple[Permutation, tuple[Permutation, ...]]:
    """Brute force over the arrangements of the color classes: the first
    relabeling (old vertex -> new position) reaching the least (edges, legs)
    key, and the vertex automorphisms of that form, identity excluded."""
    starts = []
    pos = 0
    for cls in classes:
        starts.append(pos)
        pos += len(cls)
    nv = pos

    best_key = None
    best_perms: list[tuple[int, ...]] = []
    for arrangement in product(*(permutations(cls) for cls in classes)):
        relabel = [0] * nv  # old vertex -> new position
        for cls_members, start in zip(arrangement, starts):
            for offset, old in enumerate(cls_members):
                relabel[old] = start + offset
        mapped = []
        for u, v in edges:
            pu, pv = relabel[u], relabel[v]
            mapped.append((pu, pv) if pu <= pv else (pv, pu))
        key = (tuple(sorted(mapped)), tuple(relabel[x] for x in legs))
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


def _encode_parts(weights: tuple[int, ...], edges: tuple[Edge, ...],
                  legs: tuple[int, ...]) -> str:
    """The text encoding of a graph with these fields, the cache line of its
    class, e.g. "1;0;edges=(0-0);legs=(1@0,2@0,3@0)": the parts written as
    given and no graph built, its head (_head_text), ";" and its legs
    (_legs_text)."""
    return f"{_head_text(weights, edges)};{_legs_text(legs)}"


def _head_text(weights: tuple[int, ...], edges: tuple[Edge, ...]) -> str:
    """The genus prefix (b1 plus the total weight), weights and edges of an
    encoding, e.g. "1;0,0;edges=(0-1,1-1)"."""
    w = ",".join(map(str, weights))
    e = ",".join([f"{u}-{v}" for u, v in edges])
    g = len(edges) - len(weights) + 1 + sum(weights)
    return f"{g};{w};edges=({e})"


def _legs_text(legs: tuple[int, ...]) -> str:
    """The legs of an encoding, e.g. "legs=(1@0,2@1)"; it holds no ";"."""
    l = ",".join([f"{i}@{v}" for i, v in enumerate(legs, 1)])
    return f"legs=({l})"


def _decode_canonical(line: str, pieces: dict,
                      key: tuple[int, int, int, bool]) -> CanonicalGraph:
    """The class whose canonical encoding is line, byte for byte, with line
    as its encoding unless the form was built before, for a cache file
    whose key (genus, marking count, edge count, pure only) is key.
    ValueError "bad graph encoding" for a line that is not the text
    _encode_parts writes for the parts it names, whose parts are not a
    valid graph (an index out of range, a negative weight, or disconnected),
    or whose genus, marking count or edge count is not the key's, or that
    has a positive weight under a pure key; ValueError "encoding is not
    canonical" for parts other than their own canonical form.

    A line is split at its last ";" into a head and a legs text. Each is
    read leniently and accepted only if its writer (_head_text, _legs_text)
    writes the parts read back as that text. The legs writer writes no ";",
    so a line is accepted exactly when writing its parts back
    (_encode_parts) gives the line: its numerals are as str() writes them,
    its markings 1..k in order and its genus prefix that of the parts.

    pieces, one dict for the lines of one body, maps each head and legs
    text accepted so far to what it holds: a head, which holds a ";", to
    its checked record (_Head), and a legs text, which holds none, to its
    legs. A head is read, written back, given the head part of the
    constructor's checks and made a record (_head_record), and compared
    with the key once; a legs text is read, written back and its marking
    count compared once. A line then gets only what depends on its legs:
    in _canonicalize_parts their range check, the marking part of its
    colours and their order at the head's ties, and the memo lookup; in
    _new_form the legs part of the checks, for a form built on the head's
    tuples; and the comparison of that form with its parts.
    """
    head, _, l_text = line.rpartition(";")
    try:
        record = pieces.get(head)
        if record is None:
            g_text, w_text, e_text = head.split(";")
            ends = e_text[len("edges=("):-1].replace("-", ",").split(",")
            weights = tuple(map(int, w_text.split(",")))
            edges = (tuple(zip(map(int, ends[::2]), map(int, ends[1::2])))
                     if ends != [""] else ())
            if _head_text(weights, edges) != head:
                raise ValueError("not the text _encode_parts writes")
            record = _head_record(weights, edges)
            g, _, m, pure = key
            if int(g_text) != g or len(edges) != m or pure and any(weights):
                raise ValueError("not a graph of its file's key")
            pieces[head] = record
        legs = pieces.get(l_text)
        if legs is None:
            marked = l_text[len("legs=("):-1].replace("@", ",").split(",")
            legs = tuple(map(int, marked[1::2]))
            if _legs_text(legs) != l_text:
                raise ValueError("not the text _encode_parts writes")
            if len(legs) != key[1]:
                raise ValueError("not a graph of its file's key")
            pieces[l_text] = legs
        parts = (record.weights, record.edges, legs)
        cg, _ = _canonicalize_parts(*parts, line, record)
    except ValueError as exc:
        raise ValueError(f"bad graph encoding: {line!r}") from exc
    if cg.graph != parts:
        raise ValueError(f"encoding is not canonical: {line!r}")
    return cg
