"""Marked metric graphs: points of Outer space and the group action on them.

A point is a connected core graph with positive edge lengths summing to 1 and
a marking: a homotopy equivalence from the standard rose, stored as one based
loop per generator.  Every point also carries its inverse marking (edge ->
word in the generators), and every automorphism its inverse images: an
inverse is built once, by whoever builds the point or the map, and carried
exactly through the action, never recomputed.  A point checks that its
inverse marking inverts its marking up to one conjugation, which with
rank(G) = n proves the marking a homotopy equivalence (free groups are
Hopfian).
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import (
    Collection, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

from . import words
from .graph_core import (
    EdgePath,
    Graph,
    GraphError,
    PathError,
    canonical_loop,
    direction_key,
    tighten,
    validate_path,
)
from .words import NotBasisError, Word

VOLUME_TOL = 1e-12


class MarkingError(ValueError):
    """A marking fails to be a homotopy equivalence with the stored inverse,
    or an automorphism's images are not a basis."""


class AutomorphismParseError(ValueError):
    pass


def _is_rational(x) -> bool:
    return isinstance(x, (Fraction, int))


def _brief(x) -> str:
    """str(x) for a message, its middle cut out past 30 characters."""
    s = str(x)
    return s if len(s) <= 30 else f"{s[:13]}...{s[-14:]}"


class Metric:
    """Positive edge lengths; exact fractions are kept exact."""

    __slots__ = ("_lengths", "_rational", "_direction_tables")

    def __init__(self, lengths: Mapping[int, object]):
        vals = {}
        for e in sorted(lengths):
            v = lengths[e]
            if isinstance(v, int):
                v = Fraction(v)
            if not (_is_rational(v) or isinstance(v, float)):
                raise ValueError(f"length of edge {e} has unsupported type {type(v)}")
            if v <= 0:
                raise ValueError(f"length of edge {e} must be positive, got {_brief(v)}")
            vals[e] = v
        self._lengths = vals
        self._rational = all(_is_rational(v) for v in vals.values())
        self._direction_tables: Dict[bool, Tuple[int, Dict[int, object]]] = {}

    def length(self, e: int):
        return self._lengths[abs(e)]

    @property
    def edge_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self._lengths))

    @property
    def volume(self):
        """Sum of the lengths, exact when they are rational."""
        if not self._rational:
            return sum(self._lengths.values())
        scale, by_edge = self.direction_lengths(True)
        return Fraction(sum(by_edge[e] for e in self._lengths), scale)

    @property
    def is_rational(self) -> bool:
        return self._rational

    def direction_lengths(self, exact: bool) -> Tuple[int, Dict[int, object]]:
        """(scale, {+-e: length}), built once per mode and shared, so not to
        be modified: when exact, integer lengths that are the rational ones
        times scale, the lcm of their denominators; else floats with scale 1."""
        table = self._direction_tables.get(exact)
        if table is None:
            lengths = self._lengths
            if exact:
                scale = math.lcm(*(v.denominator for v in lengths.values()))
                by_edge = {e: v.numerator * (scale // v.denominator) for e, v in lengths.items()}
            else:
                scale = 1
                by_edge = {e: float(v) for e, v in lengths.items()}
            by_edge.update([(-e, l) for e, l in by_edge.items()])
            table = self._direction_tables[exact] = (scale, by_edge)
        return table

    def is_unit(self) -> bool:
        if self.is_rational:
            return self.volume == 1
        return abs(float(self.volume) - 1.0) <= VOLUME_TOL

    def items(self):
        return tuple((e, self._lengths[e]) for e in sorted(self._lengths))

    def __eq__(self, other) -> bool:
        return isinstance(other, Metric) and self.items() == other.items()

    def __hash__(self) -> int:
        return hash(self.items())

    def __repr__(self) -> str:
        return f"Metric({dict(self.items())})"


class Automorphism:
    """Free-group automorphism by generator images, with its inverse images.

    A supplied inverse must compose with the images to a conjugation by one
    common word, which pins down a genuine automorphism.  Without one, the
    exact inverse is computed once by Stallings folds (`words.invert_images`),
    and images that are not a basis raise MarkingError.
    """

    __slots__ = ("rank", "images", "inverse_images")

    def __init__(
        self,
        images: Sequence[Sequence[int]],
        inverse: Optional[Sequence[Sequence[int]]] = None,
    ):
        imgs = tuple(words.reduce_word(w) for w in images)
        self.rank = len(imgs)
        if self.rank < 1:
            raise ValueError("need at least one generator image")
        for i, w in enumerate(imgs):
            if any(abs(x) > self.rank for x in w):
                raise ValueError(f"image of generator {i + 1} uses letters beyond rank {self.rank}")
        self.images = imgs
        if inverse is None:
            try:
                inv = words.invert_images(imgs)
            except NotBasisError as exc:
                raise MarkingError(f"marking is not a homotopy equivalence: {exc}") from exc
        else:
            inv = tuple(words.reduce_word(w) for w in inverse)
            if len(inv) != self.rank:
                raise ValueError("inverse has wrong rank")
            for i, w in enumerate(inv):
                if any(abs(x) > self.rank for x in w):
                    raise ValueError(
                        f"inverse image of generator {i + 1} uses letters beyond rank {self.rank}")
            if words.common_conjugator(words.compose(inv, imgs)) is None:
                raise NotBasisError("supplied inverse does not invert the images up to one conjugation")
        self.inverse_images = inv

    @classmethod
    def from_text(cls, text: str) -> "Automorphism":
        return cls(_parse_map_text(text))

    def __eq__(self, other) -> bool:
        return isinstance(other, Automorphism) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Automorphism({format_map_text(self.images)!r})"


# A generator is one name of words.format_word (a..z, then e27, e28, ...).
_CLAUSE_RE = re.compile(r"^\s*([a-z][0-9]*)\s*->\s*([A-Za-z0-9. ]+?)\s*$")


def _parse_map_text(text: str) -> tuple:
    clauses = [c for c in re.split(r"[;\n]", text) if c.strip()]
    if not clauses:
        raise AutomorphismParseError("empty map text")
    seen: Dict[int, Word] = {}
    for pos, clause in enumerate(clauses, start=1):
        m = _CLAUSE_RE.match(clause)
        if not m:
            raise AutomorphismParseError(
                f"clause {pos} ({clause.strip()!r}): expected `gen -> word` with lowercase "
                "generators and uppercase inverses"
            )
        try:
            (gen,) = words.parse_word(m.group(1))
            image = words.parse_word(m.group(2))
        except ValueError as exc:
            raise AutomorphismParseError(f"clause {pos}: {exc}") from exc
        if gen in seen:
            raise AutomorphismParseError(f"clause {pos}: generator {m.group(1)!r} assigned twice")
        seen[gen] = image
    rank = len(seen)
    expected = set(range(1, rank + 1))
    if set(seen) != expected:
        names = ", ".join(words.format_word((i,)) for i in sorted(expected - set(seen)))
        raise AutomorphismParseError(f"generators must be consecutive from 'a'; missing: {names}")
    for gen, w in seen.items():
        for x in w:
            if abs(x) > rank:
                raise AutomorphismParseError(
                    f"image of {words.format_word((gen,))!r} uses letter "
                    f"{words.format_word((x,))!r} outside rank {rank}"
                )
    return tuple(seen[i] for i in range(1, rank + 1))


def format_map_text(images: Sequence[Word]) -> str:
    return "; ".join(
        f"{words.format_word((i,))}->{words.format_word(w)}"
        for i, w in enumerate(images, start=1)
    )


def _bfs_tree(g: Graph, basepoint: int) -> Dict[int, Tuple[int, ...]]:
    """BFS tree: vertex -> directions of the path basepoint -> vertex."""
    paths = {basepoint: ()}
    frontier = [basepoint]
    while frontier:
        nxt = []
        for v in frontier:
            for d in g.directions_at(v):
                w = g.term(d)
                if w not in paths:
                    paths[w] = paths[v] + (d,)
                    nxt.append(w)
        frontier = nxt
    return paths


class OuterSpacePoint:
    """A marked metric core graph.

    marking[i] is the based loop (reduced rel endpoints, based at `basepoint`)
    carrying generator i+1.  inverse_marking maps each edge id to a word in
    the generators.  The graph is connected and core, and the lengths sum to
    1 (to VOLUME_TOL when they are floats).  Valence-2 vertices are allowed:
    point files refuse them (`cli.point_from_json`), but the rank-1 rose, a
    subdivided graph and the fold loop's graphs have them.
    """

    __slots__ = (
        "graph", "metric", "marking", "basepoint", "_inverse_marking", "_inverse_table",
        "_marking_table", "_tree",
    )

    def __init__(
        self,
        graph: Graph,
        metric: Metric,
        marking: Sequence[Union[EdgePath, Sequence[int]]],
        basepoint: int,
        inverse_marking: Mapping[int, Sequence[int]],
    ):
        self.graph = graph
        self.metric = metric
        # The one validation of each marking loop: callers such as act pass
        # unreduced walks, and tighten checks them against the graph.
        self.marking = tuple(tighten(graph, p) for p in marking)
        self.basepoint = basepoint
        self._inverse_marking = {e: words.reduce_word(w) for e, w in inverse_marking.items()}
        self._inverse_table = words.letter_table(self._inverse_marking)
        self._marking_table: Optional[Dict[int, Tuple[int, ...]]] = None
        self._tree: Optional[Dict[int, Tuple[int, ...]]] = None
        self._validate()

    def _validate(self) -> None:
        g = self.graph
        if self.basepoint not in g.vertices:
            raise GraphError(f"basepoint {self.basepoint} is not a vertex")
        if not g.is_connected() or g.num_edges == 0:
            raise GraphError("point graphs must be connected and nonempty")
        if not g.is_core():
            raise GraphError("point graphs must be core (all valences >= 2)")
        if self.metric.edge_ids != g.edge_ids:
            raise ValueError("metric edges do not match graph edges")
        if not self.metric.is_unit():
            raise ValueError(f"metric volume {_brief(self.metric.volume)} is not 1")
        if len(self.marking) != g.first_betti():
            raise MarkingError(
                f"marking has {len(self.marking)} generators but the graph has rank {g.first_betti()}"
            )
        for p in self.marking:
            if p.edges and (g.init(p.edges[0]) != self.basepoint or g.term(p.edges[-1]) != self.basepoint):
                raise MarkingError("marking loops must be based at the basepoint")
        if set(self._inverse_marking) != set(g.edge_ids):
            raise ValueError("inverse marking must cover exactly the graph edges")
        rank = len(self.marking)
        for e, w in self._inverse_marking.items():
            if any(abs(x) > rank for x in w):
                raise MarkingError(f"inverse marking of edge {e} uses a generator beyond rank {rank}")
        self.check_marking()

    @property
    def rank(self) -> int:
        return len(self.marking)

    # -- marking machinery ------------------------------------------------

    def marking_walk(self, w: Sequence[int]) -> Tuple[int, ...]:
        """Based walk carrying the word w through the marking, unreduced.

        It is neither checked nor reduced here: the OuterSpacePoint or
        GraphMap that receives it tightens it, which does both.
        """
        table = self._marking_table
        if table is None:
            loops = {k: p.edges for k, p in enumerate(self.marking, start=1)}
            table = self._marking_table = words.letter_table(loops)
        return tuple(chain.from_iterable(map(table.__getitem__, w)))

    def inverse_marking(self) -> Dict[int, Word]:
        return dict(self._inverse_marking)

    def inverse_marking_word(self, edges: Iterable[int]) -> Word:
        """Word in the generators carried by an edge sequence."""
        # Table words are reduced, so only their junctions can cancel.
        return words.apply_table(self._inverse_table, edges)

    def _spanning_tree(self) -> Dict[int, Tuple[int, ...]]:
        """The BFS tree of the graph from the basepoint (see `_bfs_tree`),
        computed once per point; callers must not mutate it."""
        if self._tree is None:
            self._tree = _bfs_tree(self.graph, self.basepoint)
        return self._tree

    def check_marking(self) -> Word:
        """Conjugator g with inverse_marking(marking(x_i)) = g x_i g^-1; raises if none."""
        composite = [self.inverse_marking_word(p.edges) for p in self.marking]
        g = words.common_conjugator(composite)
        if g is None:
            raise MarkingError("inverse marking does not invert the marking up to one conjugation")
        return g

    def __repr__(self) -> str:
        return (
            f"OuterSpacePoint(rank={self.rank}, edges={self.graph.num_edges}, "
            f"metric={dict(self.metric.items())})"
        )


def loop_length(x: OuterSpacePoint, p: EdgePath):
    """Length of the immersed representative of a free loop; 0 iff nullhomotopic."""
    if not p.closed:
        raise PathError("loop_length needs a closed path")
    validate_path(x.graph, p)
    length = x.metric.length
    return sum((length(d) for d in words.cyclic_reduce(p.edges)), Fraction(0))


# -- candidate loops -------------------------------------------------------


class CandidateLoop:
    """A Francaviglia–Martino candidate: an immersed loop that runs once
    around an embedded circle, once around each lobe of an embedded
    figure-eight, or once around each circle of an embedded barbell and
    twice along its bar."""

    __slots__ = ("loop",)

    def __init__(self, loop: EdgePath):
        self.loop = loop

    def __eq__(self, other) -> bool:
        return isinstance(other, CandidateLoop) and self.loop == other.loop

    def __hash__(self) -> int:
        return hash(self.loop)

    def __repr__(self) -> str:
        return f"CandidateLoop({self.loop.edges})"


def _circles(g: Graph) -> List[Tuple[Tuple[int, ...], FrozenSet[int]]]:
    """Embedded circles as (direction word, vertex set), each found once.

    A circle is walked from its smallest edge, forward, through larger edges
    only and without repeating a vertex, so it has exactly one such walk.
    """
    out = []
    for start in g.edge_ids:
        base = g.init(start)
        path = [start]
        seen = {base}

        def step(v: int) -> None:
            if v == base:
                out.append((tuple(path), frozenset(seen)))
                return
            seen.add(v)
            for d in g.directions_at(v):
                w = g.term(d)
                if abs(d) > start and (w == base or w not in seen):
                    path.append(d)
                    step(w)
                    path.pop()
            seen.discard(v)

        step(g.term(start))
    return out


def _rotate_to(g: Graph, circle: Tuple[int, ...], v: int) -> Tuple[int, ...]:
    """The circle word rotated to start (and end) at its vertex v."""
    i = next(i for i, d in enumerate(circle) if g.init(d) == v)
    return circle[i:] + circle[:i]


def _arcs(g: Graph, start: FrozenSet[int], end: FrozenSet[int]) -> List[Tuple[int, ...]]:
    """Embedded arcs from `start` to `end` whose interior avoids both sets."""
    out: List[Tuple[int, ...]] = []
    path: List[int] = []
    seen = set()

    def step(v: int) -> None:
        for d in g.directions_at(v):
            w = g.term(d)
            if w in end:
                out.append(tuple(path) + (d,))
            elif w not in start and w not in seen:
                seen.add(w)
                path.append(d)
                step(w)
                path.pop()
                seen.discard(w)

    for u in sorted(start):
        step(u)
    return out


@lru_cache(maxsize=None)
def _candidate_words(g: Graph) -> Tuple[CandidateLoop, ...]:
    """The Francaviglia–Martino candidate loops of g: embedded circles,
    figure-eights (two circles meeting in one vertex) and barbells (two
    disjoint circles joined by an embedded arc), each figure-eight and
    barbell in both relative orientations of its circles.  Their words are
    canonical up to rotation and inversion, sorted by length then by
    direction_key.  This is the one cache of candidates: a graph's tuple is
    built once and shared by every point and map on it."""
    circles = _circles(g)
    found = {canonical_loop(c) for c, _ in circles}
    for i, (c1, v1) in enumerate(circles):
        for c2, v2 in circles[i + 1 :]:
            shared = v1 & v2
            if len(shared) == 1:
                (v,) = shared
                head, tail = _rotate_to(g, c1, v), _rotate_to(g, c2, v)
                found.add(canonical_loop(head + tail))
                found.add(canonical_loop(head + words.invert_word(tail)))
            elif not shared:
                for arc in _arcs(g, v1, v2):
                    head = _rotate_to(g, c1, g.init(arc[0]))
                    tail = _rotate_to(g, c2, g.term(arc[-1]))
                    back = words.invert_word(arc)
                    found.add(canonical_loop(head + arc + tail + back))
                    found.add(canonical_loop(head + arc + words.invert_word(tail) + back))
    ordered = sorted(found, key=lambda w: (len(w), tuple(direction_key(d) for d in w)))
    return tuple(CandidateLoop(EdgePath(w, closed=True)) for w in ordered)


def candidates(x: OuterSpacePoint) -> Tuple[CandidateLoop, ...]:
    """The candidate loops of x's graph, as one tuple shared by its points."""
    return _candidate_words(x.graph)


# -- the right action -------------------------------------------------------


def act(x: OuterSpacePoint, phi: Automorphism) -> OuterSpacePoint:
    """The point x . phi: same metric graph, marking precomposed with phi.

    The inverse marking is x's followed by phi's inverse, a substitution.
    The new marking loops are x's marking walks of phi's images, handed over
    unreduced: the OuterSpacePoint constructor validates and reduces each one.
    """
    if phi.rank != x.rank:
        raise ValueError(f"rank mismatch: point has rank {x.rank}, map has rank {phi.rank}")
    new_marking = tuple(x.marking_walk(w) for w in phi.images)
    inv = x._inverse_marking
    new_inverse = dict(zip(inv, words.compose(phi.inverse_images, inv.values())))
    return OuterSpacePoint(x.graph, x.metric, new_marking, x.basepoint, inverse_marking=new_inverse)


# -- constructors ------------------------------------------------------------


def rose_graph(rank: int) -> Graph:
    return Graph([0], {i: (0, 0) for i in range(1, rank + 1)})


def uniform_metric(edge_ids: Collection[int]) -> Metric:
    """Length exactly 1/n on each of n edges, where graph automorphisms are isometries."""
    return Metric({e: Fraction(1, len(edge_ids)) for e in edge_ids})


def rose_point(rank: int, lengths: Optional[Sequence] = None) -> OuterSpacePoint:
    """The rose with the identity marking (graph_point's marking on the
    rose); uniform metric by default."""
    if rank < 1:
        raise ValueError("rank must be at least 1")
    if lengths is None:
        metric = uniform_metric(range(1, rank + 1))
    else:
        metric = Metric({i: v for i, v in enumerate(lengths, start=1)})
    return graph_point(rose_graph(rank), metric)


def graph_point(graph: Graph, metric: Metric) -> OuterSpacePoint:
    """A point on the given core graph with a spanning-tree marking, based at
    the least vertex.

    Generator j is carried to (tree path) . e_j . (tree path back) over the
    j-th non-tree edge, so the induced identification of fundamental groups
    is the standard one for that tree; the inverse marking kills tree edges.
    """
    basepoint = min(graph.vertices)
    tree_paths = _bfs_tree(graph, basepoint)
    if len(tree_paths) != len(graph.vertices):
        raise GraphError("graph must be connected")
    tree_edges = {abs(p[-1]) for p in tree_paths.values() if p}
    cotree = [e for e in graph.edge_ids if e not in tree_edges]
    marking = []
    for e in cotree:
        u, v = graph.endpoints(e)
        back = tuple(-d for d in reversed(tree_paths[v]))
        marking.append(EdgePath(tree_paths[u] + (e,) + back))
    inverse = {e: () for e in tree_edges}
    inverse.update({e: (j,) for j, e in enumerate(cotree, start=1)})
    return OuterSpacePoint(graph, metric, marking, basepoint, inverse_marking=inverse)


# -- randomized constructions (used by property suites and scripts) ----------

_ELEMENTARY_KINDS = ("swap", "invert", "left_mul", "right_mul")


def _elementary(rank: int, kind: str, i: int, j: int):
    """A Nielsen move and its inverse, as image tuples."""
    fwd = list(words.identity_images(rank))
    bwd = list(words.identity_images(rank))
    if kind == "swap":
        fwd[i - 1], fwd[j - 1] = (j,), (i,)
        bwd[i - 1], bwd[j - 1] = (j,), (i,)
    elif kind == "invert":
        fwd[i - 1] = (-i,)
        bwd[i - 1] = (-i,)
    elif kind == "left_mul":  # x_i -> x_j x_i
        fwd[i - 1] = (j, i)
        bwd[i - 1] = (-j, i)
    elif kind == "right_mul":  # x_i -> x_i x_j
        fwd[i - 1] = (i, j)
        bwd[i - 1] = (i, -j)
    else:
        raise ValueError(kind)
    return tuple(fwd), tuple(bwd)


def random_automorphism(rank: int, steps: int, rng: random.Random) -> Automorphism:
    """Random composite of Nielsen moves, with its inverse tracked exactly."""
    images = words.identity_images(rank)
    inverse = words.identity_images(rank)
    for _ in range(steps):
        kind = rng.choice(_ELEMENTARY_KINDS)
        i = rng.randrange(1, rank + 1)
        j = rng.randrange(1, rank + 1)
        if kind != "invert" and i == j:
            continue
        fwd, bwd = _elementary(rank, kind, i, j)
        images = words.compose(fwd, images)
        inverse = words.compose(inverse, bwd)
    return Automorphism(images, inverse=inverse)


def random_unit_metric(edge_ids: Sequence[int], rng: random.Random) -> Metric:
    """Random positive lengths in sixtieths with exact sum 1: the gaps
    between n - 1 distinct cuts of 1..59."""
    cuts = [0] + sorted(rng.sample(range(1, 60), len(edge_ids) - 1)) + [60]
    return Metric({e: Fraction(b - a, 60) for e, a, b in zip(edge_ids, cuts, cuts[1:])})
