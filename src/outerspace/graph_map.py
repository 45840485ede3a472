"""Maps between marked metric graphs, their gates and legal loops.

A GraphMap sends vertices to vertices and edges to reduced edge paths and is
required to commute with the markings up to free homotopy.  Stretch-factor
and train-track computations only ever interrogate these combinatorial data
together with the two metrics.  A train track structure partitions all the
directions of a graph into gates, by the eventual coincidence of a self-map's
derivative iterates; legality of paths and legal loops are read from it.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, FrozenSet, Mapping, Sequence, Tuple, Union

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
        "domain", "codomain", "vertex_image", "edge_image", "direction_image", "is_self_map",
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
        self.is_self_map = domain.graph == codomain.graph
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

    def derivative(self, d: int) -> int:
        image = self.direction_image[d]
        if not image:
            raise DegenerateImageError(f"direction {d} has a point image")
        return image[0]

    def derivative_map(self) -> Dict[int, int]:
        return {d: self.derivative(d) for d in self.domain.graph.directions()}

    def __repr__(self) -> str:
        ims = {e: p.edges for e, p in sorted(self.edge_image.items())}
        return f"GraphMap(self_map={self.is_self_map}, images={ims})"


# -- gates -------------------------------------------------------------------


class TrainTrackStructure:
    """Partition of the directions of a graph into gates."""

    __slots__ = ("graph", "vertex_gates", "_gate_of")

    def __init__(self, graph: Graph, vertex_gates: Mapping[int, Sequence[FrozenSet[int]]]):
        self.graph = graph
        norm: Dict[int, Tuple[FrozenSet[int], ...]] = {}
        self._gate_of: Dict[int, Tuple[int, int]] = {}
        for v in sorted(vertex_gates):
            gates = sorted(
                (frozenset(block) for block in vertex_gates[v] if block),
                key=lambda b: min(direction_key(d) for d in b),
            )
            norm[v] = tuple(gates)
            for i, block in enumerate(gates):
                for d in block:
                    if d in self._gate_of:
                        raise ValueError(f"direction {d} appears in two gates")
                    self._gate_of[d] = (v, i)
        self.vertex_gates = norm

    @property
    def vertices(self) -> Tuple[int, ...]:
        return tuple(sorted(self.vertex_gates))

    def gates_at(self, v: int) -> Tuple[FrozenSet[int], ...]:
        return self.vertex_gates.get(v, ())

    def num_gates(self, v: int) -> int:
        return len(self.vertex_gates.get(v, ()))

    def gate_of(self, d: int) -> Tuple[int, int]:
        if d not in self._gate_of:
            raise ValueError(f"direction {d} is outside the structure")
        return self._gate_of[d]

    def is_legal_turn(self, t: Tuple[int, int]) -> bool:
        a, b = t
        if a == b:
            return False
        return self.gate_of(a) != self.gate_of(b)

    def one_gate_vertices(self) -> Tuple[int, ...]:
        return tuple(v for v in sorted(self.vertex_gates) if len(self.vertex_gates[v]) < 2)

    def __eq__(self, other) -> bool:
        return isinstance(other, TrainTrackStructure) and self.vertex_gates == other.vertex_gates

    def __repr__(self) -> str:
        return f"TrainTrackStructure({ {v: [sorted(b, key=direction_key) for b in gs] for v, gs in self.vertex_gates.items()} })"


def gates_iterated(m: GraphMap) -> TrainTrackStructure:
    """Gates by eventual coincidence of derivative iterates (self-maps)."""
    if not m.is_self_map:
        raise ValueError("iterated gates need a self-map")
    return gates_from_derivative(m.domain.graph, m.derivative_map())


def gates_from_derivative(g: Graph, deriv: Mapping[int, int]) -> TrainTrackStructure:
    """Gates of a self-map of g given by its derivative on directions.

    Two directions at a vertex lie in one gate iff some iterate of the
    derivative map identifies them; since merged trajectories never split,
    checking the |directions|-th iterate decides all pairs at once.  That
    iterate is taken by repeated squaring of the derivative map.
    """
    directions = g.directions()
    state = None  # deriv to the power of the bits read so far
    square = deriv
    k = len(directions)
    while True:
        if k & 1:
            state = square if state is None else {d: square[state[d]] for d in directions}
        k >>= 1
        if not k:
            break
        square = {d: square[square[d]] for d in directions}
    per_vertex: Dict[int, Dict[int, set]] = {}
    for e in g.edge_ids:
        for d in (e, -e):
            per_vertex.setdefault(g.init(d), {}).setdefault(state[d], set()).add(d)
    return TrainTrackStructure(g, {v: tuple(groups.values()) for v, groups in per_vertex.items()})


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
