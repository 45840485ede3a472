"""Graph maps: edge slopes, first letters of direction images, gates, legal loops."""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import marking_conjugator_by_loops, train_track_draws, unchecked, with_metric
from outerspace.graph_core import EdgePath, Graph, PathError
from outerspace.graph_map import (
    DegenerateImageError,
    GateDeficitError,
    GraphMap,
    TrainTrackStructure,
    difference_of_markings,
    find_legal_loop,
    gates_from_derivative,
    gates_iterated,
    is_legal,
    self_map_from_automorphism,
)
from outerspace.marked_metric import (
    Automorphism,
    MarkingError,
    Metric,
    OuterSpacePoint,
    act,
    loop_length,
    random_automorphism,
    random_unit_metric,
    rose_graph,
    rose_point,
)
from outerspace.train_track_algo import find_train_track, growth_bracket, transition_matrix

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

GOLDEN_PLUS = (3 + math.sqrt(5)) / 2
FIG2_SHORT = (3 - math.sqrt(5)) / 2


def fig2_map():
    x = rose_point(2, [FIG2_SHORT, 1 - FIG2_SHORT])
    return self_map_from_automorphism(x, Automorphism.from_text("a->ab; b->bab"))


def fig1_map():
    x = rose_point(3)
    return self_map_from_automorphism(x, Automorphism.from_text("a->B; b->C; c->A"))


def growth_map():
    x = rose_point(2, [Fraction(1, 2), Fraction(1, 2)])
    return self_map_from_automorphism(x, Automorphism.from_text("a->a; b->ab"))


def identity_map(x):
    return difference_of_markings(x, x)


def theta_point():
    g = Graph([0, 1], {1: (0, 1), 2: (0, 1), 3: (0, 1)})
    return OuterSpacePoint(
        g,
        Metric({1: Fraction(1, 4), 2: Fraction(1, 4), 3: Fraction(1, 2)}),
        [EdgePath((1, -2)), EdgePath((2, -3))],
        basepoint=0,
        inverse_marking={1: (1,), 2: (), 3: (-2,)},
    )


class TestConstruction:
    def test_self_map_flag_and_images(self):
        m = fig2_map()
        assert repr(m).startswith("GraphMap(self_map=True, ")
        assert repr(difference_of_markings(theta_point(), rose_point(2))).startswith(
            "GraphMap(self_map=False, "
        )
        assert m.edge_image[1].edges == (1, 2)
        assert m.edge_image[2].edges == (2, 1, 2)

    def test_identity_map(self):
        x = rose_point(2)
        m = identity_map(x)
        assert m.edge_image[1].edges == (1,) and m.edge_image[2].edges == (2,)

    def test_edge_image_must_cover_all_edges(self):
        x = rose_point(2)
        with pytest.raises(ValueError):
            GraphMap(x, x, {0: 0}, {1: EdgePath((1,))})
        with pytest.raises(ValueError):
            GraphMap(x, x, {0: 0, 9: 0}, {1: EdgePath((1,)), 2: EdgePath((2,))})

    def test_vertex_images_are_checked(self):
        x = rose_point(2)
        with pytest.raises(ValueError, match="vertex 0 maps to unknown vertex 9"):
            GraphMap(x, x, {0: 9}, {1: EdgePath((1,)), 2: EdgePath((2,))})
        t = theta_point()
        images = {1: EdgePath((1,)), 2: EdgePath((2,)), 3: EdgePath((3,))}
        with pytest.raises(ValueError, match="image of edge 1 does not join the vertex images"):
            GraphMap(t, t, {0: 0, 1: 0}, images)
        with pytest.raises(ValueError, match="edge 1 has a point image but its endpoints map apart"):
            GraphMap(t, t, {0: 0, 1: 1}, {**images, 1: EdgePath(())})

    def test_marking_compatibility_enforced(self):
        x = rose_point(2)
        # swapping the petals does not commute with the identity marking on both sides
        with pytest.raises(MarkingError):
            GraphMap(x, x, {0: 0}, {1: EdgePath((2,)), 2: EdgePath((1,))})

    def test_constructors_validate_the_walks_they_receive(self):
        # Loop 1 at vertex 0, bridge 2, loop 3 at vertex 1.  The second
        # marking loop is a path but not based at the basepoint, which only
        # the unchecked point lets through; a walk through both loops then
        # breaks at the junction, and the receiving constructor must say so.
        g = Graph([0, 1], {1: (0, 0), 2: (0, 1), 3: (1, 1)})
        lengths = Metric({1: Fraction(1, 3), 2: Fraction(1, 3), 3: Fraction(1, 3)})
        broken = unchecked(
            OuterSpacePoint, g, lengths, [EdgePath((1,)), EdgePath((3,))], 0,
            inverse_marking={1: (1,), 2: (), 3: (2,)},
        )
        phi = Automorphism.from_text("a -> ab; b -> b")
        with pytest.raises(PathError, match="edges 1, 3 are not incident"):
            act(broken, phi)
        # Edge 1 of the rose marked by phi carries a.B, walked as 1, -3.
        with pytest.raises(PathError, match="edges 1, -3 are not incident"):
            difference_of_markings(act(rose_point(2), phi), broken)

    def test_difference_of_markings_between_graphs(self):
        m = difference_of_markings(theta_point(), rose_point(2))
        assert m.vertex_image == {0: 0, 1: 0}
        assert {e for e, p in m.edge_image.items() if not p.edges} == {1}


class TestSlopesAndTension:
    def test_fig2_slopes_at_stretch_minimum(self):
        # At the PF metric every edge slope is lambda: the least and greatest
        # slopes (the growth bracket) meet, so the whole graph is in tension.
        m = fig2_map()
        lo, hi = growth_bracket(transition_matrix(m), m.domain.metric)
        assert abs(lo - GOLDEN_PLUS) < 1e-9
        assert abs(hi - GOLDEN_PLUS) < 1e-9


class TestDerivativeAndGates:
    # The derivative sends a direction to the first letter of its image.

    def test_fig2_derivatives(self):
        first = {d: image[0] for d, image in fig2_map().direction_image.items()}
        assert first == {1: 1, 2: 2, -1: -2, -2: -2}

    def test_fig1_derivative(self):
        assert fig1_map().direction_image[1][0] == -2

    def test_derivative_of_reversal_is_last_edge_reversed(self):
        for m in (fig2_map(), fig1_map(), growth_map()):
            for e in m.domain.graph.edge_ids:
                image = m.edge_image[e]
                assert m.direction_image[-e][0] == -image.edges[-1]

    def test_degenerate_direction_errors(self):
        # Collapsing the theta graph's tree edge 2 to a point, and running
        # edges 1 and 3 back along it, is a self-map homotopic to the identity.
        x = theta_point()
        collapse = GraphMap(x, x, {0: 0, 1: 0}, {1: (1, -2), 2: (), 3: (3, -2)})
        with pytest.raises(DegenerateImageError):
            gates_iterated(collapse)
        with pytest.raises(ValueError, match="need a self-map"):
            gates_iterated(difference_of_markings(theta_point(), rose_point(2)))

    def test_fig2_gates(self):
        s = gates_iterated(fig2_map())
        assert s.gates_at(0) == (frozenset({1}), frozenset({-1, -2}), frozenset({2}))

    def test_fig1_gates_all_singletons(self):
        s = gates_iterated(fig1_map())
        assert all(len(b) == 1 for gs in s.vertex_gates.values() for b in gs)
        assert s.num_gates(0) == 6

    def test_swap_map_gates_singletons(self):
        x = rose_point(2)
        m = self_map_from_automorphism(x, Automorphism.from_text("a->b; b->a"))
        s = gates_iterated(m)
        assert all(len(b) == 1 for gs in s.vertex_gates.values() for b in gs)

    def test_identity_gates_singletons(self):
        s = gates_iterated(identity_map(rose_point(2)))
        assert s.num_gates(0) == 4

    def test_labellings_of_one_partition_are_one_structure(self):
        g = rose_graph(2)
        s = TrainTrackStructure(g, {1: 0, -1: 1, 2: 2, -2: 1})
        t = TrainTrackStructure(g, {1: "b", -1: (), 2: 7, -2: ()})
        assert s == t and repr(s) == repr(t) == "TrainTrackStructure({0: [[1], [-1, -2], [2]]})"
        assert s.gates_at(0) == t.gates_at(0) == (frozenset({1}), frozenset({-1, -2}), frozenset({2}))
        assert s != TrainTrackStructure(g, {1: 0, -1: 0, 2: 2, -2: 1})

    def test_iterated_gates_of_a_certificate_are_its_structure(self):
        # The fold loop labels directions by its surgery state's derivative;
        # gates_iterated reads the certificate map's direction images.
        draws = train_track_draws()
        assert len(draws) == 45
        for _, cert in draws:
            s = gates_iterated(cert.graph_map)
            assert s == cert.structure and repr(s) == repr(cert.structure)


class TestLegality:
    def test_fig2_legal_and_illegal_loops(self):
        s = gates_iterated(fig2_map())
        assert is_legal(EdgePath((1, 2), closed=True), s)
        assert not is_legal(EdgePath((1, -2), closed=True), s)  # crosses the merged gate
        assert is_legal(EdgePath((), closed=True), s)

    def test_open_path_ignores_wraparound(self):
        s = gates_iterated(fig2_map())
        # open a.b crosses one turn {a-bar, b} joining different gates
        assert is_legal(EdgePath((1, 2)), s)
        # b-bar.a-bar crosses the turn {b, a-bar}: distinct gates, legal open
        assert is_legal(EdgePath((-2, -1)), s)

    def test_illegal_wrap_turn_detected(self):
        s = gates_iterated(fig2_map())
        # the same edges as a loop wrap through the turn {a, b}: legal too
        assert is_legal(EdgePath((-2, -1), closed=True), s)
        # a.b-bar wraps through {b, a-bar}? no: its interior turn is
        # {a-bar, b-bar}, inside the merged gate, hence illegal
        assert not is_legal(EdgePath((1, -2), closed=True), s)

    def test_path_outside_subset_rejected(self):
        # The gates partition all directions of the graph; edge 3 is not in it.
        s = gates_iterated(growth_map())
        with pytest.raises(ValueError):
            is_legal(EdgePath((3,), closed=True), s)

    @pytest.mark.parametrize("edges", [(3,), (1, 3)])
    def test_edge_outside_graph_rejected_without_a_turn(self, edges):
        # An open (3,) crosses no turn, so no gate lookup sees edge 3.
        s = gates_iterated(growth_map())
        with pytest.raises(ValueError):
            is_legal(EdgePath(edges), s)


class TestFindLegalLoop:
    def test_fig2_tension_loop_has_max_ratio(self):
        # At the PF metric the tension graph is the whole graph.
        m = fig2_map()
        s = gates_iterated(m)
        loop = find_legal_loop(s)
        assert is_legal(loop, s)
        ratio = loop_length(m.codomain, m.map_path(loop)) / loop_length(m.domain, loop)
        assert abs(ratio - GOLDEN_PLUS) < 1e-9

    def test_single_loop_edge(self):
        x = rose_point(2)
        s = gates_iterated(identity_map(x))
        assert find_legal_loop(s) == EdgePath((1,), closed=True)

    def test_theta_all_legal(self):
        x = theta_point()
        literal_id = GraphMap(
            x, x, {0: 0, 1: 1}, {e: EdgePath((e,)) for e in x.graph.edge_ids}
        )
        s = gates_iterated(literal_id)
        loop = find_legal_loop(s)
        assert loop == EdgePath((1, -2), closed=True)

    def test_budget_respected(self):
        rng = random.Random(41)
        for _ in range(20):
            rank = rng.choice([2, 3])
            x = with_metric(rose_point(rank), random_unit_metric(range(1, rank + 1), rng))
            m = self_map_from_automorphism(x, random_automorphism(rank, 8, rng))
            s = gates_iterated(m)
            if s.one_gate_vertices():
                continue
            loop = find_legal_loop(s)
            assert is_legal(loop, s)
            for e in x.graph.edge_ids:
                assert sum(1 for d in loop.edges if abs(d) == e) <= 2

    def test_gate_deficit_signalled(self):
        x = rose_point(2)
        s = TrainTrackStructure(x.graph, {1: 0, -1: 0, 2: 0, -2: 0})
        with pytest.raises(GateDeficitError):
            find_legal_loop(s)


class TestMapAction:
    def test_map_path_tightens(self):
        m = fig2_map()
        p = m.map_path(EdgePath((1, -1), closed=True))
        assert p.edges == ()


def _path_from_basepoint(x, v):
    """A path of x's graph from its basepoint to v, by breadth-first search."""
    paths = {x.basepoint: ()}
    queue = [x.basepoint]
    for u in queue:
        for d in sorted(x.graph.directions_at(u)):
            w = x.graph.term(d)
            if w not in paths:
                paths[w] = paths[u] + (d,)
                queue.append(w)
    return paths[v]


def _corrupted(m, rng):
    """m with one edge image followed by a loop at its end, so every image
    still joins the vertex images.  The edge is crossed with a nonzero net
    count by some domain marking loop and the loop is a codomain generator,
    so the map changes on homology and cannot commute with the markings."""
    g, y = m.domain.graph, m.codomain
    crossed = [
        e for e in g.edge_ids
        if any(p.edges.count(e) != p.edges.count(-e) for p in m.domain.marking)
    ]
    e = rng.choice(crossed)
    q = _path_from_basepoint(y, m.vertex_image[g.term(e)])
    loop = tuple(-d for d in reversed(q)) + rng.choice(y.marking).edges + q
    images = {f: p.edges for f, p in m.edge_image.items()}
    images[e] += loop
    return unchecked(GraphMap, m.domain, y, m.vertex_image, images)


def _compatibility_cases(monkeypatch):
    """Differences of markings on the distance-table graph family and the
    seed-0 fold-survey certificate maps."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    maps = [difference_of_markings(x, y) for x, y in (i.payload for i in workloads.DistanceTable(0).inputs)]
    for item in workloads.FoldSurvey(0).inputs:
        m = getattr(find_train_track(item.payload), "graph_map", None)
        if m is not None:
            maps.append(m)
    return maps


class TestMarkingCompatibility:
    def test_matches_the_loop_by_loop_check(self, monkeypatch):
        maps = _compatibility_cases(monkeypatch)
        assert len(maps) > 324 + 100
        rng = random.Random(0)
        for m in maps:
            assert m.check_marking_compatibility() == marking_conjugator_by_loops(m)
            bad = _corrupted(m, rng)
            with pytest.raises(MarkingError):
                marking_conjugator_by_loops(bad)
            with pytest.raises(MarkingError):
                bad.check_marking_compatibility()


class TestGatesByPowering:
    @staticmethod
    def naive_gates(g, deriv):
        """Gates from the |directions|-th iterate, taken one step at a time."""
        directions = g.directions()
        state = dict(deriv)
        for _ in range(len(directions) - 1):
            state = {d: deriv[state[d]] for d in directions}
        return TrainTrackStructure(g, state)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_step_by_step_iteration(self, seed):
        rng = random.Random(seed)
        n_vertices = rng.randint(1, 5)
        n_edges = rng.randint(1, 13)
        g = Graph(
            range(n_vertices),
            {e: (rng.randrange(n_vertices), rng.randrange(n_vertices)) for e in range(1, n_edges + 1)},
        )
        directions = g.directions()
        for _ in range(10):
            deriv = {d: rng.choice(directions) for d in directions}
            assert gates_from_derivative(g, deriv) == self.naive_gates(g, deriv)
