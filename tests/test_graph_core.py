"""Graph layer: oriented edges, path reduction, forests."""

from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from outerspace.graph_core import (
    EdgePath,
    Graph,
    GraphError,
    PathError,
    canonical_loop,
    direction_key,
    is_forest,
    tighten,
    turn,
    validate_path,
)
from outerspace.words import cyclic_reduce, invert_word


def rose(n: int) -> Graph:
    return Graph([0], {i: (0, 0) for i in range(1, n + 1)})


def theta() -> Graph:
    return Graph([0, 1], {1: (0, 1), 2: (0, 1), 3: (0, 1)})


def barbell() -> Graph:
    # loop x=1 at vertex 0, bridge y=2, loop z=3 at vertex 1
    return Graph([0, 1], {1: (0, 0), 2: (0, 1), 3: (1, 1)})


GRAPHS = {
    "rose1": rose(1),
    "rose2": rose(2),
    "rose3": rose(3),
    "theta": theta(),
    "barbell": barbell(),
}


def bfs_directions(g: Graph, src: int, dst: int):
    """Directions along a shortest path src -> dst."""
    prev = {src: None}
    frontier = [src]
    while frontier and dst not in prev:
        nxt = []
        for v in frontier:
            for d in g.directions_at(v):
                w = g.term(d)
                if w not in prev:
                    prev[w] = (v, d)
                    nxt.append(w)
        frontier = nxt
    out = []
    v = dst
    while prev[v] is not None:
        u, d = prev[v]
        out.append(d)
        v = u
    return list(reversed(out))


@st.composite
def graph_walk(draw, closed=False):
    g = GRAPHS[draw(st.sampled_from(sorted(GRAPHS)))]
    v = draw(st.sampled_from(g.vertices))
    steps = draw(st.lists(st.integers(0, 7), min_size=0, max_size=14))
    edges = []
    cur = v
    for s in steps:
        ds = g.directions_at(cur)
        d = ds[s % len(ds)]
        edges.append(d)
        cur = g.term(d)
    if closed and cur != v:
        edges.extend(bfs_directions(g, cur, v))
    return g, EdgePath(tuple(edges), closed)


# Independent oracle: rewrite adjacent cancelling pairs until stable.
def oracle_rewrite(edges):
    edges = list(edges)
    changed = True
    while changed:
        changed = False
        for i in range(len(edges) - 1):
            if edges[i] == -edges[i + 1]:
                del edges[i : i + 2]
                changed = True
                break
    return tuple(edges)


def oracle_cyclic(edges):
    edges = list(oracle_rewrite(edges))
    while len(edges) >= 2 and edges[0] == -edges[-1]:
        edges = list(oracle_rewrite(edges[1:-1]))
    return tuple(edges)


def rotations_of(word):
    if not word:
        return {()}
    out = set()
    for w in (word, tuple(-d for d in reversed(word))):
        for i in range(len(w)):
            out.add(w[i:] + w[:i])
    return out


class TestGraphBasics:
    def test_orientation_and_incidence(self):
        g = barbell()
        assert g.init(2) == 0 and g.term(2) == 1
        assert g.init(-2) == 1 and g.term(-2) == 0
        assert g.directions_at(0) == (1, -1, 2)
        assert g.directions_at(1) == (-2, 3, -3)
        assert g.valence(0) == 3
        assert g.directions() == (1, -1, 2, -2, 3, -3)

    def test_directions_at_follow_direction_key_from_any_edge_order(self):
        # Edge ids given out of order, with a loop at each vertex.
        g = Graph([1, 0], {5: (1, 0), 2: (0, 0), 4: (1, 1), 1: (0, 1)})
        assert g.directions_at(0) == (1, 2, -2, -5)
        assert g.directions_at(1) == (-1, 4, -4, 5)
        for v in g.vertices:
            assert list(g.directions_at(v)) == sorted(g.directions_at(v), key=direction_key)

    def test_equality_and_hash(self):
        g1 = theta()
        g2 = Graph((1, 0), {3: (0, 1), 1: (0, 1), 2: (0, 1)})
        assert g1 == g2
        assert {g1: "x"}[g2] == "x"
        assert g1 != rose(3)

    def test_invalid_graphs_rejected(self):
        with pytest.raises(GraphError):
            Graph([0], {0: (0, 0)})  # edge ids start at 1
        with pytest.raises(GraphError):
            Graph([0], {1: (0, 2)})  # unknown endpoint

    def test_connectivity(self):
        assert barbell().is_connected()
        assert not Graph([0, 1], {1: (0, 0), 2: (1, 1)}).is_connected()
        assert Graph([], {}).is_connected()

    def test_first_betti(self):
        assert rose(3).first_betti() == 3
        assert theta().first_betti() == 2
        assert Graph([0, 1], {1: (0, 1)}).first_betti() == 0

    def test_disconnected_graph_counts_each_component(self):
        # A rose of rank 1, a rose of rank 2 and an isolated vertex.
        for first in ("is_connected", "first_betti"):
            g = Graph([0, 1, 2], {1: (0, 0), 2: (1, 1), 3: (1, 1)})
            getattr(g, first)()  # the count is cached by whichever asks first
            assert not g.is_connected()
            assert g.first_betti() == 3 - 3 + 3

    def test_turns(self):
        assert turn(-2, 1) == (1, -2)
        assert turn(2, -1) == (-1, 2)
        assert turn(3, 3) == (3, 3)
        assert turn(-3, 3) == (3, -3)
        assert direction_key(1) < direction_key(-1) < direction_key(2)


class TestPaths:
    def test_validate_rejects_broken_paths(self):
        g = barbell()
        with pytest.raises(PathError):
            validate_path(g, EdgePath((1, 3)))  # 1 ends at 0, 3 starts at 1
        with pytest.raises(PathError):
            validate_path(g, EdgePath((2,), closed=True))  # does not return
        with pytest.raises(PathError):
            validate_path(g, EdgePath((9,)))

    def test_tighten_reduces_raw_tuples_like_paths(self):
        g = barbell()
        assert tighten(g, (2, 3, -3, -2, 1)) == tighten(g, EdgePath((2, 3, -3, -2, 1)))
        assert tighten(g, [1, -1]) == EdgePath(())

    def test_tighten_raises_what_validate_raises(self):
        g = barbell()
        broken = [
            (EdgePath((1, 3)), "edges 1, 3 are not incident"),
            (EdgePath((2,), closed=True), "closed path does not return to its start"),
            (EdgePath((9,)), "unknown edge 9"),
            (EdgePath((1, 1, 2, 0)), "unknown edge 0"),
        ]
        for p, message in broken:
            # A raw tuple is an open path, so only open ones are given raw.
            for check, path in [(validate_path, p), (tighten, p)] + (
                [] if p.closed else [(tighten, p.edges)]
            ):
                with pytest.raises(PathError) as err:
                    check(g, path)
                assert str(err.value) == message
        assert tighten(g, (2,)) == EdgePath((2,))

    def test_rose_word_reduces_to_single_letter(self):
        g = rose(2)
        p = EdgePath((1, 2, -2, -1, 1), closed=True)
        validate_path(g, p)
        assert cyclic_reduce(p.edges) == (1,)

    def test_backtrack_loop_reduces_to_empty(self):
        g = theta()
        p = EdgePath((1, -1), closed=True)
        validate_path(g, p)
        assert cyclic_reduce(p.edges) == ()

    def test_tighten_keeps_endpoints(self):
        g = barbell()
        p = EdgePath((2, 3, -3, -2, 2))
        t = tighten(g, p)
        assert t.edges == (2,)
        assert g.init(t.edges[0]) == 0 and g.term(t.edges[-1]) == 1

    def test_closed_reduction_strips_seam(self):
        g = barbell()
        # conjugate of the x-loop: y z z' y' x y ... rotated so the seam shows
        p = EdgePath((2, 3, -3, -2, 1), closed=True)
        validate_path(g, p)
        assert cyclic_reduce(p.edges) == (1,)

    def test_canonical_loop_prefers_positive_minimal_edge(self):
        assert canonical_loop((-2, -1)) == (1, 2)
        assert canonical_loop((2, 1)) == (1, 2)
        assert canonical_loop((-1, -2)) == (1, 2)

    @given(graph_walk())
    def test_tighten_matches_oracle(self, gw):
        g, p = gw
        assert tighten(g, p).edges == oracle_rewrite(p.edges)

    @given(graph_walk())
    def test_tighten_idempotent_and_reversal_compatible(self, gw):
        g, p = gw
        t = tighten(g, p)
        assert tighten(g, t) == t
        assert tighten(g, EdgePath(invert_word(p.edges), p.closed)) == EdgePath(
            invert_word(t.edges), t.closed
        )

    @given(graph_walk(closed=True))
    def test_closed_reduce_is_cyclically_reduced_rotation_of_oracle(self, gw):
        g, p = gw
        r = cyclic_reduce(p.edges)
        validate_path(g, EdgePath(r, closed=True))
        assert r in rotations_of(oracle_cyclic(p.edges))
        if len(r) >= 2:
            assert r[0] != -r[-1]
        assert cyclic_reduce(r) == r

    @given(graph_walk(closed=True), st.integers(0, 13), st.booleans())
    def test_closed_reduce_invariant_under_rotation_and_reversal(self, gw, k, rev):
        g, p = gw
        q = p
        if q.edges:
            k %= len(q.edges)
            q = EdgePath(q.edges[k:] + q.edges[:k], closed=True)
        if rev:
            q = EdgePath(invert_word(q.edges), closed=True)
        assert canonical_loop(cyclic_reduce(q.edges)) == canonical_loop(cyclic_reduce(p.edges))


def core_edges(g: Graph, sub) -> set:
    """Edges left after repeatedly deleting valence <= 1 vertices of the
    subgraph spanned by sub (an oracle for is_forest)."""
    eps = {e: g.endpoints(e) for e in sub}
    while True:
        valence = {}
        for u, v in eps.values():
            valence[u] = valence.get(u, 0) + 1
            valence[v] = valence.get(v, 0) + 1
        bad = {v for v, k in valence.items() if k <= 1}
        if not bad:
            return set(eps)
        eps = {e: (u, v) for e, (u, v) in eps.items() if u not in bad and v not in bad}


class TestForest:
    def test_forest_iff_empty_core(self):
        for g in GRAPHS.values():
            for r in range(g.num_edges + 1):
                for sub in combinations(g.edge_ids, r):
                    assert is_forest(g, sub) == (not core_edges(g, sub))

    def test_unknown_edges_rejected(self):
        with pytest.raises(GraphError):
            is_forest(theta(), {9})
