"""Points of Outer space: metrics, markings, candidates, and the action."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outerspace.graph_core import EdgePath, Graph, GraphError, PathError, canonical_loop
from outerspace.marked_metric import (
    Automorphism,
    AutomorphismParseError,
    MarkingError,
    Metric,
    OuterSpacePoint,
    act,
    _candidate_words,
    candidates,
    format_map_text,
    graph_point,
    loop_length,
    random_automorphism,
    random_unit_metric,
    rose_point,
)
from outerspace.words import (
    NotBasisError,
    compose,
    cyclic_reduce,
    identity_images,
    invert_images,
    letter_counts,
)

from helpers import connected_core_graphs, with_metric

GOLDEN_PLUS = (3 + math.sqrt(5)) / 2
FIG2_SHORT = (3 - math.sqrt(5)) / 2  # length of the short petal at the stretch-minimal metric


def fig2_point():
    return rose_point(2, [FIG2_SHORT, 1 - FIG2_SHORT])


def theta_point(lengths=(Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))):
    g = Graph([0, 1], {1: (0, 1), 2: (0, 1), 3: (0, 1)})
    return OuterSpacePoint(
        g,
        Metric({1: lengths[0], 2: lengths[1], 3: lengths[2]}),
        [EdgePath((1, -2)), EdgePath((2, -3))],
        basepoint=0,
        inverse_marking={1: (1,), 2: (), 3: (-2,)},
    )


def barbell_point(lengths=(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))):
    g = Graph([0, 1], {1: (0, 0), 2: (0, 1), 3: (1, 1)})
    return OuterSpacePoint(
        g,
        Metric({1: lengths[0], 2: lengths[1], 3: lengths[2]}),
        [EdgePath((1,)), EdgePath((2, 3, -2))],
        basepoint=0,
        inverse_marking={1: (1,), 2: (), 3: (2,)},
    )


class TestMetric:
    def test_validation(self):
        with pytest.raises(ValueError):
            Metric({1: Fraction(0)})
        with pytest.raises(ValueError):
            Metric({1: -0.5})

    def test_unsupported_length_type(self):
        with pytest.raises(ValueError, match="length of edge 1 has unsupported type <class 'str'>"):
            Metric({1: "1/2"})

    def test_nonpositive_length_message_is_short(self):
        with pytest.raises(ValueError) as info:
            Metric({1: Fraction(1, 2) + 10**400, 2: Fraction(1, 2) - 10**400})
        assert str(info.value) == (
            "length of edge 2 must be positive, got -199999999999...999999999999/2")

    def test_volume_and_normalize(self):
        m = Metric({1: Fraction(1, 3), 2: Fraction(1, 6)})
        assert m.volume == Fraction(1, 2)
        assert not m.is_unit()
        assert m.is_rational and not Metric({1: 0.25, 2: 0.75}).is_rational

    def test_ints_become_fractions(self):
        m = Metric({1: 1})
        assert m.length(1) == Fraction(1) and m.is_rational
        assert m.length(-1) == Fraction(1)


class TestAutomorphismParsing:
    def test_fig2_text(self):
        phi = Automorphism.from_text("a->ab; b->bab")
        assert phi.rank == 2
        assert phi.images == ((1, 2), (2, 1, 2))
        assert compose(phi.images, ((1,),))[0] == (1, 2)

    def test_newlines_and_spaces(self):
        phi = Automorphism.from_text("a -> a b\nb -> B A B")
        assert phi.images == ((1, 2), (-2, -1, -2))

    def test_parse_errors(self):
        with pytest.raises(AutomorphismParseError, match="clause 1"):
            Automorphism.from_text("a = ab")
        with pytest.raises(AutomorphismParseError, match="assigned twice"):
            Automorphism.from_text("a->b; a->a")
        with pytest.raises(AutomorphismParseError, match="missing: b"):
            Automorphism.from_text("a->a; c->c")
        with pytest.raises(AutomorphismParseError, match="outside rank"):
            Automorphism.from_text("a->ab")
        with pytest.raises(AutomorphismParseError):
            Automorphism.from_text("")

    def test_rank_27_map_text_round_trips(self):
        # Generator 27 is e27, and map text with it joins names with dots.
        phi = random_automorphism(27, 60, random.Random(27))
        assert any(27 in map(abs, w) for w in phi.images)
        text = format_map_text(phi.images)
        assert "e27->" in text and "." in text
        assert Automorphism.from_text(text) == phi
        with pytest.raises(AutomorphismParseError, match="missing: a"):
            Automorphism.from_text("e27->e27")
        with pytest.raises(AutomorphismParseError, match="clause 1: bad letter 'e5'"):
            Automorphism.from_text("e5->a")

    def test_empty_image_rejected(self):
        # An empty image is refused as any other non-basis is: by inverting
        # the images, or by the check of a supplied inverse.
        for images in ([(1, 2), ()], [(1, -1), (2,)]):
            with pytest.raises(MarkingError, match="not a homotopy equivalence"):
                Automorphism(images)
        with pytest.raises(NotBasisError):
            Automorphism([(1, 2), ()], inverse=[(1, -2), (2,)])

    def test_supplied_inverse_verified(self):
        phi = Automorphism([(1, 2), (2, 1, 2)], inverse=[(1, 1, -2), (2, -1)])
        assert phi.inverse_images == ((1, 1, -2), (2, -1))
        with pytest.raises(NotBasisError):
            Automorphism([(1, 2), (2, 1, 2)], inverse=[(2,), (1,)])

    def test_supplied_inverse_beyond_the_rank_rejected(self):
        # C is one common conjugator of these inverse images, so the
        # conjugation check alone accepted them, and act then built a point
        # whose inverse marking used generator 3.
        with pytest.raises(ValueError, match="inverse image of generator 1 uses letters beyond rank 2"):
            Automorphism(((1,), (2,)), inverse=((3, 1, -3), (3, 2, -3)))

    @pytest.mark.parametrize("rank, steps, seed", [(2, 8, 0), (3, 12, 1), (5, 30, 2)])
    def test_inverse_computed_exactly(self, rank, steps, seed):
        # Without a supplied inverse, the images are inverted once, exactly:
        # composing gives the identity on the nose, not up to conjugation.
        phi = Automorphism(random_automorphism(rank, steps, random.Random(seed)).images)
        assert compose(phi.inverse_images, phi.images) == identity_images(rank)
        assert compose(phi.images, phi.inverse_images) == identity_images(rank)

    @pytest.mark.parametrize("text", ["a->aa; b->b", "a->ab; b->BA", "a->aab; b->Ab"])
    def test_images_that_are_not_a_basis_rejected(self, text):
        with pytest.raises(MarkingError, match="not a homotopy equivalence"):
            Automorphism.from_text(text)


class TestPointConstruction:
    def test_rose_point(self):
        x = rose_point(2)
        assert x.rank == 2
        assert x.metric.length(1) == Fraction(1, 2)
        assert x.check_marking() == ()

    def test_graph_must_be_core_and_connected(self):
        g = Graph([0, 1], {1: (0, 0), 2: (0, 1)})
        with pytest.raises(GraphError):
            OuterSpacePoint(
                g, Metric({1: Fraction(1, 2), 2: Fraction(1, 2)}), [EdgePath((1,))], 0,
                inverse_marking={1: (1,), 2: ()},
            )
        g2 = Graph([0, 1], {1: (0, 0), 2: (1, 1)})
        with pytest.raises(GraphError):
            OuterSpacePoint(
                g2, Metric({1: Fraction(1, 2), 2: Fraction(1, 2)}),
                [EdgePath((1,)), EdgePath((2,))], 0,
                inverse_marking={1: (1,), 2: (2,)},
            )

    def test_unit_volume_enforced(self):
        with pytest.raises(ValueError, match="metric volume 5/6 is not 1"):
            rose_point(2, [Fraction(1, 2), Fraction(1, 3)])
        with pytest.raises(ValueError, match="metric volume 2 is not 1"):
            with_metric(rose_point(2), Metric({1: Fraction(1), 2: Fraction(1)}))

    def test_valence_two_allowed(self):
        # Only point files refuse valence-2 vertices (cli.point_from_json).
        g = Graph([0, 1], {1: (0, 0), 2: (0, 1), 3: (1, 0)})
        x = OuterSpacePoint(
            g, Metric({1: Fraction(1, 2), 2: Fraction(1, 4), 3: Fraction(1, 4)}),
            [EdgePath((1,)), EdgePath((2, 3))], 0,
            inverse_marking={1: (1,), 2: (2,), 3: ()},
        )
        assert x.graph.valence(1) == 2 and x.check_marking() == ()

    def test_marking_rank_must_match(self):
        g = Graph([0], {1: (0, 0), 2: (0, 0)})
        with pytest.raises(MarkingError):
            OuterSpacePoint(
                g, Metric({1: Fraction(1, 2), 2: Fraction(1, 2)}), [EdgePath((1,))], 0,
                inverse_marking={1: (1,), 2: (2,)},
            )

    def test_bad_inverse_marking_rejected(self):
        g = Graph([0], {1: (0, 0), 2: (0, 0)})
        with pytest.raises(MarkingError):
            OuterSpacePoint(
                g, Metric({1: Fraction(1, 2), 2: Fraction(1, 2)}),
                [EdgePath((1,)), EdgePath((2,))], 0,
                inverse_marking={1: (1,), 2: (1,)},
            )

    def test_inverse_marking_beyond_the_rank_rejected(self):
        # Cac, Cbc carry the rose's loops up to the one conjugator C, so the
        # marking check alone accepted them.
        g = Graph([0], {1: (0, 0), 2: (0, 0)})
        with pytest.raises(MarkingError, match="edge 1 uses a generator beyond rank 2"):
            OuterSpacePoint(
                g, Metric({1: Fraction(1, 2), 2: Fraction(1, 2)}),
                [EdgePath((1,)), EdgePath((2,))], 0,
                inverse_marking={1: (-3, 1, 3), 2: (-3, 2, 3)},
            )

    def test_graph_point_constructor(self):
        g = Graph([0, 1], {1: (0, 1), 2: (0, 1), 3: (0, 1)})
        x = graph_point(g, Metric({1: Fraction(1, 4), 2: Fraction(1, 4), 3: Fraction(1, 2)}))
        assert x.rank == 2
        assert x.check_marking() == ()

    def test_graph_point_on_all_small_cores(self):
        rng = random.Random(7)
        for eps in [
            {1: (0, 0), 2: (0, 0)},
            {1: (0, 1), 2: (0, 1), 3: (0, 1)},
            {1: (0, 0), 2: (0, 1), 3: (1, 1)},
            {1: (0, 0), 2: (0, 1), 3: (0, 1)},
            {1: (0, 1), 2: (0, 1), 3: (1, 2), 4: (1, 2)},
        ]:
            g = Graph({v for uv in eps.values() for v in uv}, eps)
            x = graph_point(g, random_unit_metric(g.edge_ids, rng))
            assert x.check_marking() == ()


class TestLoopLength:
    def test_basic(self):
        x = rose_point(2)
        assert loop_length(x, EdgePath((1, -2), closed=True)) == 1
        assert loop_length(x, EdgePath((1, -1), closed=True)) == 0

    def test_fig2_short_petal(self):
        x = fig2_point()
        assert abs(loop_length(x, EdgePath((1,), closed=True)) - 0.3819660113) < 1e-9

    def test_open_path_rejected(self):
        with pytest.raises(PathError):
            loop_length(rose_point(2), EdgePath((1,)))


def brute_force_loops(g, max_len):
    """All cyclically reduced loops up to the length cap, canonicalized:
    plain walk enumeration, independent of the production search."""
    out = set()
    walks = [[d] for d in g.directions()]
    while walks:
        w = walks.pop()
        if len(w) <= max_len:
            if g.term(w[-1]) == g.init(w[0]) and w[-1] != -w[0]:
                out.add(canonical_loop(tuple(w)))
            if len(w) < max_len:
                for d in g.directions_at(g.term(w[-1])):
                    if d != -w[-1]:
                        walks.append(w + [d])
    return out


def fm_shaped(g, w):
    """Whether the closed walk w runs once around an embedded circle, once
    around each lobe of a figure-eight, or once around each circle of a
    barbell and twice along its bar, judged from its edge counts alone."""
    counts = {}
    for d in w:
        counts[abs(d)] = counts.get(abs(d), 0) + 1
    if max(counts.values()) > 2:
        return False
    once = [e for e, k in counts.items() if k == 1]
    twice = [e for e, k in counts.items() if k == 2]
    valence = {}
    for e in once:
        for v in g.endpoints(e):
            valence[v] = valence.get(v, 0) + 1
    lobes = _components(g, once)
    if not twice:
        high = sorted(k for k in valence.values() if k != 2)
        return len(lobes) == 1 and high in ([], [4])
    if set(valence.values()) != {2} or len(lobes) != 2:
        return False
    bar_valence = {}
    for e in twice:
        u, v = g.endpoints(e)
        if u == v:
            return False
        for x in (u, v):
            bar_valence[x] = bar_valence.get(x, 0) + 1
    ends = [v for v, k in bar_valence.items() if k == 1]
    is_path = len(_components(g, twice)) == 1 and len(twice) == len(bar_valence) - 1
    if not is_path or len(ends) != 2:
        return False
    # The bar meets the circles exactly at its two ends, one end on each.
    if sorted(v for v in bar_valence if v in valence) != sorted(ends):
        return False
    return all(len(lobe & set(ends)) == 1 for lobe in lobes)


def _components(g, edge_ids):
    """Vertex sets of the connected components of the given edges."""
    parts = []
    for e in edge_ids:
        ends = set(g.endpoints(e))
        touching = [p for p in parts if p & ends]
        for p in touching:
            parts.remove(p)
            ends |= p
        parts.append(ends)
    return parts


class TestCandidates:
    def test_rose2_contains_basic_loops(self):
        got = {c.loop.edges for c in candidates(rose_point(2))}
        assert {(1,), (2,), (1, 2), (1, -2)} <= got

    def test_theta_embedded_circles(self):
        got = {c.loop.edges for c in candidates(theta_point())}
        once = {w for w in got if len(w) <= 2}
        assert once == {(1, -2), (1, -3), (2, -3)}

    def test_barbell_contains_handle_loop(self):
        got = {c.loop.edges for c in candidates(barbell_point())}
        assert {(1,), (3,), (1, 2, 3, -2)} <= got
        assert (2,) not in got

    @pytest.mark.parametrize("make", [lambda: rose_point(2), theta_point, barbell_point])
    def test_matches_walk_enumeration_oracle(self, make):
        x = make()
        shapes = {
            w for w in brute_force_loops(x.graph, 2 * x.graph.num_edges)
            if fm_shaped(x.graph, w)
        }
        assert {c.loop.edges for c in candidates(x)} == shapes

    def test_matches_walk_enumeration_oracle_on_small_cores(self):
        for g in connected_core_graphs(3):
            shapes = {w for w in brute_force_loops(g, 2 * g.num_edges) if fm_shaped(g, w)}
            assert {c.loop.edges for c in _candidate_words(g)} == shapes

    @pytest.mark.parametrize("rank", [2, 3, 4, 5, 6])
    def test_rose_has_rank_squared_candidates(self, rank):
        # rank petals plus both orientations of each pair of petals
        assert len(_candidate_words(rose_point(rank).graph)) == rank * rank

    def test_k4_candidates_are_its_seven_circles(self):
        k4 = Graph(range(4), {1: (0, 1), 2: (0, 2), 3: (0, 3), 4: (1, 2), 5: (1, 3), 6: (2, 3)})
        loops = _candidate_words(k4)
        assert sorted(len(c.loop.edges) for c in loops) == [3, 3, 3, 3, 4, 4, 4]

    def test_small_core_graph_total(self):
        graphs = connected_core_graphs(4)
        assert len(graphs) == 20
        assert sum(len(_candidate_words(g)) for g in graphs) == 108

    def test_counts_and_determinism(self):
        x = barbell_point()
        cs = candidates(x)
        assert cs == candidates(barbell_point())
        for c in cs:
            counts = letter_counts(x.graph.edge_ids, c.loop.edges)
            assert all(k <= 2 for k in counts)
            assert sum(counts) == len(c.loop.edges)
        lens = [len(c.loop.edges) for c in cs]
        assert lens == sorted(lens)


class TestAction:
    def test_identity_action(self):
        x = fig2_point()
        y = act(x, Automorphism(identity_images(2), inverse=identity_images(2)))
        assert y.marking == x.marking

    def test_fig2_twist(self):
        x = rose_point(2)
        y = act(x, Automorphism.from_text("a->ab; b->bab"))
        assert y.marking == (EdgePath((1, 2)), EdgePath((2, 1, 2)))

    def test_round_trip_through_inverse(self):
        rng = random.Random(3)
        for _ in range(10):
            phi = random_automorphism(2, 8, rng)
            x = rose_point(2)
            y = act(act(x, phi), Automorphism(invert_images(phi.images)))
            for p, q in zip(y.marking, x.marking):
                assert canonical_loop(cyclic_reduce(p.edges)) == canonical_loop(
                    cyclic_reduce(q.edges)
                )

    def test_action_composes(self):
        rng = random.Random(5)
        for rank in (2, 3):
            x = rose_point(rank)
            for _ in range(10):
                phi = random_automorphism(rank, 6, rng)
                psi = random_automorphism(rank, 6, rng)
                a = act(act(x, phi), psi)
                composite = Automorphism(
                    compose(phi.images, psi.images),
                    inverse=compose(psi.inverse_images, phi.inverse_images),
                )
                b = act(x, composite)
                assert a.marking == b.marking

    def test_inverse_marking_postcomposed_exactly(self):
        x = rose_point(2)
        phi = random_automorphism(2, 8, random.Random(11))
        y = act(x, phi)
        assert y.inverse_marking() == dict(enumerate(phi.inverse_images, start=1))
        assert y.check_marking() == ()

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            act(rose_point(2), Automorphism(identity_images(3)))


class TestRandomHelpers:
    @given(st.integers(0, 10 ** 6), st.integers(2, 4))
    @settings(max_examples=30, deadline=None)
    def test_random_automorphism_is_invertible(self, seed, rank):
        phi = random_automorphism(rank, 10, random.Random(seed))
        assert compose(phi.inverse_images, phi.images) == identity_images(rank)
        assert all(w for w in phi.images)

    @given(st.integers(0, 10 ** 6), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_random_unit_metric_sums_to_one(self, seed, n):
        m = random_unit_metric(range(1, n + 1), random.Random(seed))
        assert m.volume == 1 and m.is_rational
