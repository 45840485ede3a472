"""Maps between marked metric graphs, their gates and legal loops.

A GraphMap sends vertices to vertices and edges to reduced edge paths and is
required to commute with the markings up to free homotopy.  Stretch-factor
and train-track computations only ever interrogate these combinatorial data
together with the two metrics.  A train track structure labels the
directions of a graph, two at a vertex sharing a gate iff their labels are
equal; a self-map's gates are the labelling by a high iterate of its
derivative.  Legality of paths and legal loops are read from the gates.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, FrozenSet, Hashable, List, Mapping, Sequence, Tuple, Union

from . import words
from .graph_core import (
    EdgePath,
    Graph,
    direction_key,
    tighten,
    turn,
    validate_path,
)
from .marked_metric import (
    Automorphism,
    MarkingError,
    OuterSpacePoint,
    act,
)


class DegenerateImageError(ValueError):
    """An operation needed the first edge of an image that is a point."""


class GateDeficitError(ValueError):
    """A vertex has fewer than two gates, so no legal loop can cross it."""


class GraphMap:
    """Vertex-to-vertex map with reduced edge-path images, marking-compatible.

    Edge images may be given as EdgePaths or raw direction tuples, reduced or
    not: the constructor tightens each one, which is its only validation as a
    path of the codomain graph.
    """

    __slots__ = (
        "domain", "codomain", "vertex_image", "edge_image", "direction_image",
    )

    def __init__(
        self,
        domain: OuterSpacePoint,
        codomain: OuterSpacePoint,
        vertex_image: Mapping[int, int],
        edge_image: Mapping[int, Union[EdgePath, Sequence[int]]],
    ):
        self.domain = domain
        self.codomain = codomain
        self.vertex_image = dict(vertex_image)
        h = codomain.graph
        self.edge_image = {e: tighten(h, p) for e, p in edge_image.items()}
        self.direction_image = words.letter_table({e: p.edges for e, p in self.edge_image.items()})
        self._validate()

    def _validate(self) -> None:
        g, h = self.domain.graph, self.codomain.graph
        if set(self.vertex_image) != set(g.vertices):
            raise ValueError("vertex_image must cover exactly the domain vertices")
        for v, w in self.vertex_image.items():
            if w not in h.vertices:
                raise ValueError(f"vertex {v} maps to unknown vertex {w}")
        if set(self.edge_image) != set(g.edge_ids):
            raise ValueError("edge_image must cover exactly the domain edges (by positive id)")
        for e, p in self.edge_image.items():
            u, v = g.endpoints(e)
            iu, iv = self.vertex_image[u], self.vertex_image[v]
            if p.edges:
                if h.init(p.edges[0]) != iu or h.term(p.edges[-1]) != iv:
                    raise ValueError(f"image of edge {e} does not join the vertex images")
            elif iu != iv:
                raise ValueError(f"edge {e} has a point image but its endpoints map apart")
        self.check_marking_compatibility()

    def check_marking_compatibility(self) -> tuple:
        """Conjugating word certifying map . domain marking ~ codomain marking.

        The word of each domain marking loop's image is read back through the
        codomain's inverse marking.  That reading is a homomorphism from edge
        paths to F_n that ignores backtracking, so it is read once per edge:
        t[e] is the word of e's image, and a loop's word is the reduced
        product of the t of its edges.  This equals the word of the loop's
        tightened image, so the conjugator, and when none exists the
        MarkingError, are those of mapping each loop and tightening it.
        """
        word_of = self.codomain.inverse_marking_word
        t = words.letter_table({e: word_of(p.edges) for e, p in self.edge_image.items()})
        vs = [words.apply_table(t, p.edges) for p in self.domain.marking]
        g = words.common_conjugator(vs)
        if g is None:
            raise MarkingError("map does not commute with the markings up to homotopy")
        return g

    # -- path images -------------------------------------------------------

    def map_path(self, p: EdgePath) -> EdgePath:
        image = chain.from_iterable(map(self.direction_image.__getitem__, p.edges))
        return tighten(self.codomain.graph, EdgePath(tuple(image), p.closed))

    def __repr__(self) -> str:
        ims = {e: p.edges for e, p in sorted(self.edge_image.items())}
        return f"GraphMap(self_map={self.domain.graph == self.codomain.graph}, images={ims})"


# -- gates -------------------------------------------------------------------


class TrainTrackStructure:
    """Gates by one label per direction of the graph: two directions at a
    vertex share a gate iff their labels are equal, so two labellings of one
    partition compare equal and print alike.  A vertex's gates are listed by
    least direction, each in directions_at (direction_key) order."""

    __slots__ = ("graph", "label")

    def __init__(self, graph: Graph, label: Mapping[int, Hashable]):
        self.graph = graph
        self.label = dict(label)

    def _gates(self, v: int) -> List[List[int]]:
        blocks: Dict[Hashable, List[int]] = {}
        for d in self.graph.directions_at(v):
            blocks.setdefault(self.label[d], []).append(d)
        return list(blocks.values())

    @property
    def vertices(self) -> Tuple[int, ...]:
        return tuple(sorted({self.graph.init(d) for d in self.label}))

    @property
    def vertex_gates(self) -> Dict[int, Tuple[FrozenSet[int], ...]]:
        return {v: self.gates_at(v) for v in self.vertices}

    def gates_at(self, v: int) -> Tuple[FrozenSet[int], ...]:
        return tuple(map(frozenset, self._gates(v)))

    def num_gates(self, v: int) -> int:
        return len(self._gates(v))

    def gate_of(self, d: int) -> Tuple[int, Hashable]:
        if d not in self.label:
            raise ValueError(f"direction {d} is outside the structure")
        return self.graph.init(d), self.label[d]

    def is_legal_turn(self, t: Tuple[int, int]) -> bool:
        # Both directions of a turn start at one vertex.
        a, b = t
        return a != b and self.label[a] != self.label[b]

    def one_gate_vertices(self) -> Tuple[int, ...]:
        return tuple(v for v in self.vertices if self.num_gates(v) < 2)

    def __eq__(self, other) -> bool:
        return isinstance(other, TrainTrackStructure) and self.vertex_gates == other.vertex_gates

    def __repr__(self) -> str:
        return f"TrainTrackStructure({ {v: self._gates(v) for v in self.vertices} })"


def gates_iterated(m: GraphMap) -> TrainTrackStructure:
    """Gates by eventual coincidence of derivative iterates (self-maps)."""
    g = m.domain.graph
    if g != m.codomain.graph:
        raise ValueError("iterated gates need a self-map")
    point = next((d for d, image in m.direction_image.items() if not image), None)
    if point is not None:
        raise DegenerateImageError(f"direction {point} has a point image")
    return gates_from_derivative(g, {d: image[0] for d, image in m.direction_image.items()})


def gates_from_derivative(g: Graph, deriv: Mapping[int, int]) -> TrainTrackStructure:
    """Gates of a self-map of g given by its derivative on directions: the
    labelling of each direction by its image under one iterate.

    Two directions at a vertex lie in one gate iff some iterate of the
    derivative map identifies them; since merged trajectories never split,
    the |directions|-th iterate identifies all such pairs at once.  That
    iterate is taken by repeated squaring of the derivative map.
    """
    directions = g.directions()
    iterate = {d: d for d in directions}  # deriv to the power of the bits read so far
    square = deriv
    k = len(directions)
    while k:
        if k & 1:
            iterate = {d: square[iterate[d]] for d in directions}
        k >>= 1
        if k:
            square = {d: square[square[d]] for d in directions}
    return TrainTrackStructure(g, iterate)


def is_legal(p: EdgePath, s: TrainTrackStructure) -> bool:
    """Whether the path crosses only legal turns (wrap-around included for loops).

    Raises PathError, a ValueError, when p is not a path of the structure's
    graph, also when it crosses no turn.
    """
    validate_path(s.graph, p)
    edges = p.edges
    pairs = list(zip(edges, edges[1:]))
    if p.closed and edges:
        pairs.append((edges[-1], edges[0]))
    return all(s.is_legal_turn(turn(-a, b)) for a, b in pairs)


def find_legal_loop(s: TrainTrackStructure) -> EdgePath:
    """A legal loop in the structure's graph crossing each edge at most twice.

    Extends legally with lexicographic tie-breaking until a direction repeats;
    the stretch between the repeats is the loop.
    """
    graph = s.graph
    deficit = s.one_gate_vertices()
    if deficit:
        raise GateDeficitError(f"vertex {deficit[0]} has fewer than two gates")
    first = min(graph.directions(), key=direction_key)
    walk = [first]
    seen = {first: 0}
    while True:
        v = graph.term(walk[-1])
        incoming_gate = s.gate_of(-walk[-1])
        # v has a second gate, so some direction at v leaves legally.
        nxt = next(d for d in graph.directions_at(v) if s.gate_of(d) != incoming_gate)
        if nxt in seen:
            return EdgePath(tuple(walk[seen[nxt]:]), closed=True)
        seen[nxt] = len(walk)
        walk.append(nxt)


# -- canonical constructions --------------------------------------------------


def difference_of_markings(x: OuterSpacePoint, y: OuterSpacePoint) -> GraphMap:
    """The standard difference of markings x -> y through the basepoints.

    Every vertex is sent to y's basepoint; an edge goes to the y-realization
    of the generator word its based extension carries.  Optimality is never
    assumed: stretch maxima over candidate loops do not depend on the
    representative within its homotopy class.  Each image is y's unreduced
    marking walk of that word; the GraphMap constructor validates and reduces
    it.
    """
    if x.rank != y.rank:
        raise ValueError("points have different ranks")
    tree_paths = x._spanning_tree()
    g = x.graph
    vertex_image = {v: y.basepoint for v in g.vertices}
    edge_image = {}
    for e in g.edge_ids:
        u, v = g.endpoints(e)
        based = tree_paths[u] + (e,) + words.invert_word(tree_paths[v])
        w = x.inverse_marking_word(based)
        edge_image[e] = y.marking_walk(w)
    return GraphMap(x, y, vertex_image, edge_image)


def self_map_from_automorphism(x: OuterSpacePoint, phi: Automorphism) -> GraphMap:
    """A map x -> x.phi on the same graph realizing the marking twist."""
    return difference_of_markings(x, act(x, phi))
