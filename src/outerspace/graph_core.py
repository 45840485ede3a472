"""Finite graphs with oriented edge paths.

Vertices and edges carry stable integer ids (edge ids >= 1).  An oriented
edge is a signed id: +e runs from endpoints(e)[0] to endpoints(e)[1], -e the
other way, so reversal is negation and is fixed-point free.  A direction is
an oriented edge regarded as a germ at its initial vertex; a turn is an
unordered pair of distinct directions at one vertex.  Edge paths are words
in signed edge ids; tighten checks a path against the graph and freely
reduces it in one pass, and loops are cyclically reduced by ``words``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union


class GraphError(ValueError):
    pass


class PathError(ValueError):
    pass


class Graph:
    """Undirected multigraph (loops allowed) with a chosen edge orientation.

    Connectivity is not an invariant of the class: graphs built during graph
    surgery may be disconnected.  Marked points enforce connectivity themselves.
    """

    __slots__ = ("_vertices", "_endpoints", "_init", "_term", "_dirs", "_hash", "_components")

    def __init__(self, vertices: Iterable[int], endpoints: Dict[int, Tuple[int, int]]):
        self._vertices = tuple(sorted(set(vertices)))
        vs = set(self._vertices)
        eps = {}
        for e in sorted(endpoints):
            u, v = endpoints[e]
            if e < 1:
                raise GraphError(f"edge id {e} must be >= 1")
            if u not in vs or v not in vs:
                raise GraphError(f"edge {e} endpoints {(u, v)} not among vertices")
            eps[e] = (u, v)
        self._endpoints = eps
        self._init: Dict[int, int] = {}  # direction -> initial vertex
        self._term: Dict[int, int] = {}  # direction -> terminal vertex
        # Edges come in increasing id and +e before -e, so each vertex's
        # directions are appended in direction_key order.
        dirs: Dict[int, list] = {v: [] for v in self._vertices}
        for e, (u, v) in eps.items():
            self._init[e] = self._term[-e] = u
            self._term[e] = self._init[-e] = v
            dirs[u].append(e)
            dirs[v].append(-e)
        self._dirs = {v: tuple(ds) for v, ds in dirs.items()}
        self._hash = hash((self._vertices, tuple(sorted(eps.items()))))
        self._components: Optional[int] = None

    @property
    def vertices(self) -> Tuple[int, ...]:
        return self._vertices

    @property
    def edge_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self._endpoints))

    @property
    def num_edges(self) -> int:
        return len(self._endpoints)

    def endpoints(self, e: int) -> Tuple[int, int]:
        return self._endpoints[e]

    def init(self, d: int) -> int:
        """Initial vertex of an oriented edge."""
        return self._init[d]

    def term(self, d: int) -> int:
        return self._term[d]

    def directions_at(self, v: int) -> Tuple[int, ...]:
        """Directions based at v in direction_key order; a loop edge
        contributes both +e and -e."""
        return self._dirs[v]

    def directions(self) -> Tuple[int, ...]:
        out = []
        for e in self.edge_ids:
            out.extend((e, -e))
        return tuple(out)

    def valence(self, v: int) -> int:
        return len(self._dirs[v])

    def is_core(self) -> bool:
        return all(len(ds) >= 2 for ds in self._dirs.values())

    def is_connected(self) -> bool:
        return self._count_components() <= 1

    def first_betti(self) -> int:
        return len(self._endpoints) - len(self._vertices) + self._count_components()

    def _count_components(self) -> int:
        if self._components is None:  # a Graph never changes: count once
            self._components = _component_count(self._vertices, self._endpoints.values())
        return self._components

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self._vertices == other._vertices
            and self._endpoints == other._endpoints
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(V={len(self._vertices)}, E={sorted(self._endpoints.items())})"


def direction_key(d: int) -> Tuple[int, int]:
    """Total order on oriented edges: by edge id, forward before backward."""
    return (abs(d), 0 if d > 0 else 1)


def turn(d1: int, d2: int) -> Tuple[int, int]:
    """Unordered pair of directions, canonically sorted."""
    return tuple(sorted((d1, d2), key=direction_key))  # type: ignore[return-value]


@dataclass(frozen=True)
class EdgePath:
    """Sequence of oriented edges; closed=True marks a free loop."""

    edges: Tuple[int, ...]
    closed: bool = False


_NOWHERE = object()  # where a walk stands before its first edge: no vertex


def _reduced_walk(g: Graph, edges: Iterable[int], closed: bool) -> Tuple[int, ...]:
    """Free reduction of a walk in g, checked in the same pass.

    Raises PathError on an unknown edge, on consecutive edges that do not
    meet, and on a closed walk that does not return to its start.
    """
    init, term = g._init, g._term
    out: list = []
    prev = None
    start = end = _NOWHERE
    for d in edges:
        u = init.get(d)
        if u != end:  # the first edge, an unknown one, or a gap
            if u is None:
                raise PathError(f"unknown edge {d}")
            if prev is not None:
                raise PathError(f"edges {prev}, {d} are not incident")
            start = u
        end = term[d]
        prev = d
        if out and out[-1] == -d:
            out.pop()
        else:
            out.append(d)
    if closed and prev is not None and end != start:
        raise PathError("closed path does not return to its start")
    return tuple(out)


def validate_path(g: Graph, p: EdgePath) -> None:
    """Raise PathError unless p is a walk in g (a closed one returns).

    For callers that read p itself, unreduced; a path that a point or a map
    keeps is checked by tighten when its constructor receives it.
    """
    _reduced_walk(g, p.edges, p.closed)


def tighten(g: Graph, p: Union[EdgePath, Sequence[int]]) -> EdgePath:
    """Validate and reduce rel endpoints in one pass (no cyclic cancellation,
    no rotation).

    p is an EdgePath or a raw direction tuple, read as an open path.  This is
    the one check of every marking loop and edge image: OuterSpacePoint and
    GraphMap tighten each path they receive, so builders such as act and
    difference_of_markings hand them unreduced walks.
    """
    if isinstance(p, EdgePath):
        return EdgePath(_reduced_walk(g, p.edges, p.closed), p.closed)
    return EdgePath(_reduced_walk(g, p, False))


def canonical_loop(edges: Tuple[int, ...]) -> Tuple[int, ...]:
    """Least rotation of a cyclic word or its inverse, under direction_key."""
    if not edges:
        return edges
    best = None
    n = len(edges)
    for w in (edges, tuple(-d for d in reversed(edges))):
        doubled = [direction_key(d) for d in w] * 2
        i = min(range(n), key=lambda k: doubled[k : k + n])
        key = tuple(doubled[i : i + n])
        if best is None or key < best[0]:
            best = (key, w[i:] + w[:i])
    return best[1]


def _component_count(vertices, edge_endpoints) -> int:
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edge_endpoints:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(v) for v in vertices})


def is_forest(g: Graph, edges) -> bool:
    """True when the induced subgraph has no cycle (per component E = V - 1)."""
    subset = frozenset(edges)
    missing = subset - set(g.edge_ids)
    if missing:
        raise GraphError(f"edges {sorted(missing)} not in graph")
    eps = [g.endpoints(e) for e in subset]
    verts = {u for uv in eps for u in uv}
    if not subset:
        return True
    comps = _component_count(verts, eps)
    return len(subset) == len(verts) - comps
