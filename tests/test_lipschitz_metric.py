"""Tests for the stretch-factor metric and displacement minimization."""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    EXPANDING,
    GOLDEN_SQ,
    PERMUTED,
    RANK4_REDUCIBLE,
    REDUCIBLE,
    assert_bracketing_trace,
    connected_core_graphs,
    cycle_permutation,
    distance,
    exceeds_spectral_radius,
    minimize_at,
    reference_invariant_chain,
    train_track_draws,
    unchecked,
    with_metric,
)
from outerspace import lipschitz_metric
from outerspace.graph_core import EdgePath, Graph, canonical_loop, validate_path
from outerspace.graph_map import (
    GraphMap,
    difference_of_markings,
    is_legal,
    self_map_from_automorphism,
)
from outerspace.lipschitz_metric import (
    Elliptic,
    Hyperbolic,
    Inconclusive,
    ParabolicSuspect,
    StretchIntegrityError,
    _constraint_rows,
    classify,
    linprog,
    min_displacement_on_simplex,
    sigma,
    solve_matrix_game,
)
from outerspace.marked_metric import (
    Automorphism,
    Metric,
    _candidate_words,
    act,
    candidates,
    graph_point,
    loop_length,
    random_automorphism,
    random_unit_metric,
    rose_graph,
    rose_point,
)
from outerspace.train_track_algo import (
    ReductionCertificate,
    TrainTrackCertificate,
    find_train_track,
    growth_bracket,
    pf_eigen,
    transition_matrix,
)
from outerspace.words import compose, cyclic_reduce

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# A rose train track whose edge images are not cyclically reduced, so the
# image of the figure-eight ac is longer than those of the petals a and c
# together, and ac alone carries the stretch at some metrics.
UNREDUCED_IMAGES = Automorphism.from_text("a->aCA; b->bccaCAcA; c->bcc")
UNREDUCED_IMAGES_LAM = 3.91223
# Rank-3 train tracks with an interior PF metric on which the floor-1e-6 LP
# can return a point on the floor: draws 17, 23, 26 and 27 of
# random_automorphism(3, 12, Random(0)), and draw 1 relabelled by the signed
# permutation a -> b, b -> C, c -> A (as drawn, the fold loop reduces it).
FLOOR_VERTEX_TRAIN_TRACKS = (
    "a->Aca; b->ca; c->cacb",
    "a->cb; b->BCABacacb; c->BCABacb",
    "a->caaBaaB; b->aaB; c->aB",
    "a->BA; b->abbcab; c->BBA",
    "a->bbbACb; b->BcaBB; c->aBB",
)


@pytest.fixture
def lp_calls(monkeypatch):
    """Records the row count (keyword b_ub) of every LP the minimizer solves;
    clear the list to start a new count."""
    calls = []
    solve = lipschitz_metric.linprog

    def counting(*args, **kwargs):
        calls.append(len(kwargs["b_ub"]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(lipschitz_metric, "linprog", counting)
    return calls


@pytest.fixture
def row_builds(monkeypatch):
    """Records the arguments of every constraint-row build."""
    calls = []
    build = lipschitz_metric._constraint_rows

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(lipschitz_metric, "_constraint_rows", counting)
    return calls


def rose_self_map(text: str) -> GraphMap:
    phi = Automorphism.from_text(text)
    return self_map_from_automorphism(rose_point(phi.rank), phi)


def identity_map_between(x, y) -> GraphMap:
    """Simplicial identity between two metrics on the same marked rose."""
    return GraphMap(
        x,
        y,
        {v: v for v in x.graph.vertices},
        {e: (e,) for e in x.graph.edge_ids},
    )


class TestSigma:
    def test_exact_rational_pair(self):
        x = rose_point(2, lengths=(Fraction(1, 4), Fraction(3, 4)))
        y = rose_point(2, lengths=(Fraction(1, 2), Fraction(1, 2)))
        fwd = sigma(x, y, identity_map_between(x, y))
        assert fwd.sigma == Fraction(2)
        assert fwd.witness.loop.edges == (1,)
        assert fwd.log_sigma == pytest.approx(math.log(2), abs=1e-15)
        back = sigma(y, x, identity_map_between(y, x))
        assert back.sigma == Fraction(3, 2)
        assert back.witness.loop.edges == (2,)
        assert back.log_sigma == pytest.approx(math.log(1.5), abs=1e-15)

    def test_identity_is_one(self):
        x = rose_point(2, lengths=(Fraction(1, 3), Fraction(2, 3)))
        rep = sigma(x, x, identity_map_between(x, x))
        assert rep.sigma == Fraction(1)
        assert rep.log_sigma == 0.0

    def test_table_covers_every_candidate(self):
        x = rose_point(2, lengths=(Fraction(1, 4), Fraction(3, 4)))
        y = rose_point(2, lengths=(Fraction(1, 2), Fraction(1, 2)))
        rep = sigma(x, y, identity_map_between(x, y))
        assert len(rep.table) == len(candidates(x))
        assert all(ratio <= rep.sigma for _, ratio in rep.table)
        assert any(ratio == rep.sigma for _, ratio in rep.table)

    def test_half_half_shift_map(self):
        x = rose_point(2, lengths=(Fraction(1, 2), Fraction(1, 2)))
        m = rose_self_map(REDUCIBLE)
        rep = sigma(x, with_metric(x, x.metric), m)
        assert rep.sigma == Fraction(2)
        assert rep.witness.loop.edges == (2,)

    def test_degenerate_map_is_rejected(self):
        x = rose_point(2)
        crushing = unchecked(GraphMap, x, x, {1: 1}, {1: (1,), 2: (1,)})
        with pytest.raises(StretchIntegrityError):
            sigma(x, x, crushing)
        # The minimizer's rows hold candidates to the same rule: aB maps to
        # the trivial loop.
        with pytest.raises(StretchIntegrityError, match=r"candidate \(1, -2\)"):
            min_displacement_on_simplex(crushing, (1e-2,))

    def test_bounded_stretch_on_random_loops(self):
        # The maximal candidate stretch is the optimal Lipschitz constant, so
        # it bounds the stretch of every loop (Francaviglia-Martino).
        rng = random.Random(57)
        for _ in range(15):
            rank = rng.choice([2, 3])
            x = with_metric(rose_point(rank), random_unit_metric(range(1, rank + 1), rng))
            y = with_metric(rose_point(rank), random_unit_metric(range(1, rank + 1), rng))
            m = difference_of_markings(x, y)
            bound = sigma(x, y, m).sigma
            for _ in range(10):
                w = [rng.choice([s * k for s in (1, -1) for k in range(1, rank + 1)]) for _ in range(rng.randrange(1, 9))]
                loop = EdgePath(tuple(w), closed=True)
                assert loop_length(y, m.map_path(loop)) <= bound * loop_length(x, loop)


def _graph(edges):
    return Graph(sorted({v for e in edges for v in e}), dict(enumerate(edges, start=1)))


SIGMA_GRAPHS = {
    "rose": rose_graph(3),
    "theta_loop": _graph([(0, 1), (0, 1), (0, 1), (0, 0)]),
    "k4": _graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "barbell": _graph([(0, 0), (0, 1), (1, 2), (1, 2), (1, 2)]),
}


def metric_in_84ths(edge_ids, rng) -> Metric:
    """Random positive lengths in 84ths with sum 1, so that a pair with
    random_unit_metric's 60ths has two different denominators."""
    cuts = [0] + sorted(rng.sample(range(1, 84), len(edge_ids) - 1)) + [84]
    return Metric({e: Fraction(b - a, 84) for e, a, b in zip(edge_ids, cuts, cuts[1:])})


@pytest.mark.parametrize("name", sorted(SIGMA_GRAPHS))
def test_sigma_table_matches_loop_length_reference(name):
    """Every ratio of the table is the exact ratio of loop lengths, read
    from the map's edge images; float metrics agree with it to rounding."""
    g = SIGMA_GRAPHS[name]
    rng = random.Random(name)
    for _ in range(4):
        x = graph_point(g, random_unit_metric(g.edge_ids, rng))
        y = act(
            graph_point(g, metric_in_84ths(g.edge_ids, rng)),
            random_automorphism(x.rank, 20, rng),
        )
        m = difference_of_markings(x, y)
        rep = sigma(x, y, m)
        assert [c for c, _ in rep.table] == list(candidates(x))
        for c, ratio in rep.table:
            image = []
            for d in c.loop.edges:
                p = m.edge_image[abs(d)].edges
                image.extend(p if d > 0 else [-t for t in reversed(p)])
            ref = loop_length(y, EdgePath(tuple(image), closed=True)) / loop_length(x, c.loop)
            assert type(ratio) is Fraction and ratio == ref
        assert rep.sigma == max(ratio for _, ratio in rep.table)

        def floats(p):
            return with_metric(p, Metric({e: float(v) for e, v in p.metric.items()}))

        fx, fy = floats(x), floats(y)
        frep = sigma(fx, fy, difference_of_markings(fx, fy))
        for (c, exact), (fc, approx) in zip(rep.table, frep.table):
            assert fc == c and type(approx) is float
            assert abs(approx - float(exact)) <= 1e-12 * float(exact)


@pytest.mark.parametrize("name", sorted(SIGMA_GRAPHS))
@pytest.mark.parametrize("exact", [True, False])
def test_sigma_witness_is_first_largest_ratio(name, exact):
    """sigma is the largest ratio of the table, as a Fraction or a float, and
    the witness is the first candidate that reaches it; equal lengths and the
    identity map make every ratio 1, a tie the first candidate wins."""
    g = SIGMA_GRAPHS[name]
    rng = random.Random(name)

    def point(metric):
        if not exact:
            metric = Metric({e: float(v) for e, v in metric.items()})
        return graph_point(g, metric)

    for _ in range(4):
        x = point(random_unit_metric(g.edge_ids, rng))
        y = act(point(random_unit_metric(g.edge_ids, rng)), random_automorphism(x.rank, 20, rng))
        rep = sigma(x, y, difference_of_markings(x, y))
        ratios = [ratio for _, ratio in rep.table]
        assert all(type(r) is (Fraction if exact else float) for r in ratios)
        first = ratios.index(max(ratios))
        assert rep.sigma == ratios[first] and rep.witness == rep.table[first][0]
    x = point(Metric({e: Fraction(1, g.num_edges) for e in g.edge_ids}))
    rep = sigma(x, x, difference_of_markings(x, x))
    assert {ratio for _, ratio in rep.table} == {1}
    assert rep.witness == candidates(x)[0]


def test_candidates_are_one_tuple_per_graph():
    g = SIGMA_GRAPHS["k4"]
    rng = random.Random(3)
    x, y = (graph_point(g, random_unit_metric(g.edge_ids, rng)) for _ in range(2))
    assert x.metric != y.metric
    assert candidates(x) is candidates(y)


def test_warm_sigma_hits_the_candidate_cache():
    # The graph's candidates are built by the first sigma only; every later
    # sigma on a point of that graph reads them from the one cache.
    g = SIGMA_GRAPHS["k4"]
    rng = random.Random(4)
    x, y = (graph_point(g, random_unit_metric(g.edge_ids, rng)) for _ in range(2))
    m = difference_of_markings(x, y)
    sigma(x, y, m)
    before = _candidate_words.cache_info()
    for _ in range(3):
        sigma(x, y, m)
    after = _candidate_words.cache_info()
    assert after.hits == before.hits + 3
    assert after.misses == before.misses


class TestDistance:
    def test_reference_pair(self):
        x = rose_point(2, lengths=(Fraction(1, 4), Fraction(3, 4)))
        y = rose_point(2, lengths=(Fraction(1, 2), Fraction(1, 2)))
        assert distance(x, y) == pytest.approx(math.log(2), abs=1e-12)
        assert distance(y, x) == pytest.approx(math.log(1.5), abs=1e-12)

    def test_self_distance_vanishes(self):
        x = rose_point(3, lengths=(Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)))
        assert distance(x, x) == 0.0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_nonnegative_and_triangle(self, seed):
        rng = random.Random(seed)
        rank = rng.choice((2, 3))
        base = rose_point(rank)
        pts = [
            with_metric(base, random_unit_metric(base.graph.edge_ids, rng))
            for _ in range(3)
        ]
        x, y, z = pts
        dxy, dyz, dxz = distance(x, y), distance(y, z), distance(x, z)
        assert dxy >= 0.0 and dyz >= 0.0 and dxz >= 0.0
        assert dxz <= dxy + dyz + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_action_is_isometric(self, seed):
        rng = random.Random(seed)
        rank = rng.choice((2, 3))
        base = rose_point(rank)
        x = with_metric(base, random_unit_metric(base.graph.edge_ids, rng))
        y = with_metric(base, random_unit_metric(base.graph.edge_ids, rng))
        phi = random_automorphism(rank, steps=rng.randrange(1, 6), rng=rng)
        assert distance(act(x, phi), act(y, phi)) == pytest.approx(
            distance(x, y), abs=1e-9
        )


# Rank -> graphs: the benchmark's distance-table graph family
# (perfbench/workloads.py) at ranks 3 and 4, the rose at rank 5.
DISPLACED_GRAPHS = {
    3: (rose_graph(3), _graph([(0, 1), (0, 1), (0, 1), (0, 0)]),
        _graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        _graph([(0, 0), (0, 1), (1, 2), (1, 2), (1, 2)])),
    4: (_graph([(a, b) for a in (0, 1, 2) for b in (3, 4, 5)]),
        _graph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]),
        rose_graph(4)),
    5: (rose_graph(5),),
}


class TestDisplacement:
    """Stretch from x to its translate x.phi, by the difference of markings."""

    def test_train_track_point_is_displaced_by_its_growth_rate(self):
        # The Lipschitz metric as judge: at a train track's own point x the
        # displacement sigma(x, x.phi), read from the Francaviglia-Martino
        # candidates of a difference of markings and not from the fold
        # loop's map, is the growth rate lambda of the certificate.
        draws = train_track_draws()
        assert len(draws) == 45  # of the 120 draws
        for phi, cert in draws:
            x = cert.graph_map.domain
            y = act(x, phi)
            rep = sigma(x, y, difference_of_markings(x, y))
            assert rep.sigma == pytest.approx(cert.lam, rel=1e-12, abs=0)

    def test_displacement_is_nowhere_below_the_growth_rate(self):
        # The paper's inequality: sigma(z, z.phi) >= lambda at every point z.
        # It is checked exactly against growth_bracket's lower bound lo <=
        # lambda at the certificate's point, (a) at seeded points of other
        # graphs of phi's rank, and (b) at the certificate's own point with
        # its PF lengths rounded to denominators up to 10**6.
        rng = random.Random(5)
        checked = 0
        for phi, cert in train_track_draws():
            x = cert.graph_map.domain
            lo, _ = growth_bracket(transition_matrix(cert.graph_map), x.metric)
            points = [graph_point(g, random_unit_metric(g.edge_ids, rng))
                      for g in DISPLACED_GRAPHS[phi.rank] for _ in range(3)]
            rounded = {e: Fraction(x.metric.length(e)).limit_denominator(10**6) for e in x.graph.edge_ids}
            volume = sum(rounded.values())
            points.append(with_metric(x, Metric({e: r / volume for e, r in rounded.items()})))
            for z in points:
                s = self.displacement(z, phi).sigma
                assert isinstance(s, Fraction) and s >= lo
                checked += 1
        assert checked == 3 * (24 * 4 + 13 * 3 + 8) + 45

    @staticmethod
    def displacement(x, phi):
        y = act(x, phi)
        return sigma(x, y, difference_of_markings(x, y))

    def test_expanding_map_at_its_eigenmetric(self):
        a = 1.0 / GOLDEN_SQ  # normalized left eigenvector of [[1,1],[1,2]]
        x = rose_point(2, lengths=(a, 1.0 - a))
        rep = self.displacement(x, Automorphism.from_text(EXPANDING))
        assert rep.log_sigma == pytest.approx(math.log(GOLDEN_SQ), abs=1e-12)

    def test_expanding_map_at_barycenter(self):
        x = rose_point(2)
        rep = self.displacement(x, Automorphism.from_text(EXPANDING))
        assert rep.sigma == Fraction(3)
        assert rep.witness.loop.edges == (2,)

    def test_finite_order_map_is_not_displacing(self):
        x = rose_point(3)
        rep = self.displacement(x, Automorphism.from_text(PERMUTED))
        assert rep.sigma == Fraction(1)
        assert rep.log_sigma == 0.0


def reference_rows(m: GraphMap):
    """Constraint rows built from each candidate's image as a validated
    closed path in its canonical rotation, then counted edge by edge."""
    g = m.domain.graph
    ids = g.edge_ids
    rows = []
    for c in _candidate_words(g):
        w = c.loop.edges
        image = []
        for d in w:
            p = m.edge_image[abs(d)].edges
            image.extend(p if d > 0 else [-t for t in reversed(p)])
        validate_path(g, EdgePath(tuple(image), closed=True))
        loop = canonical_loop(cyclic_reduce(image))
        B = tuple(sum(1 for d in loop if abs(d) == e) for e in ids)
        C = tuple(sum(1 for d in w if abs(d) == e) for e in ids)
        if any(B) and (B, C) not in rows:
            rows.append((B, C))
    return rows


class TestConstraintRows:
    def test_rows_match_reference_on_small_graphs(self):
        rng = random.Random(7)
        for g in connected_core_graphs(3):
            x = graph_point(g, random_unit_metric(g.edge_ids, rng))
            for _ in range(4):
                m = self_map_from_automorphism(x, random_automorphism(x.rank, 10, rng))
                assert _constraint_rows(m) == reference_rows(m)

    def test_rose_rows_are_fm_candidate_rows(self):
        # Candidates a, b, ab, aB; a -> ab and b -> bab send aB to B.
        m2 = rose_self_map(EXPANDING)
        assert _constraint_rows(m2) == [
            ((1, 1), (1, 0)),
            ((1, 2), (0, 1)),
            ((2, 3), (1, 1)),
            ((0, 1), (1, 1)),
        ]
        m4 = rose_self_map(RANK4_REDUCIBLE)
        rows = _constraint_rows(m4)
        assert len(set(rows)) == len(rows) == 12
        assert all(sum(count) <= 2 for _, count in rows)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_petal_maximum_matches_full_table(self, seed):
        rng = random.Random(seed)
        base = rose_point(2)
        x = with_metric(base, random_unit_metric(base.graph.edge_ids, rng))
        m = rose_self_map(EXPANDING)
        full = max(
            Fraction(loop_length(x, m.map_path(c.loop))) / loop_length(x, c.loop)
            for c in candidates(x)
        )
        petals = max(
            Fraction(loop_length(x, m.map_path(EdgePath((e,), closed=True))))
            / x.metric.length(e)
            for e in base.graph.edge_ids
        )
        assert full == petals


# A game's duality gap max_i (P mu)_i - min_j (y P)_j may reach the pivot
# tolerance of the game mapped onto [1, 2], in units of the width U - L of
# the pure-strategy bounds (the map divides by at least that), with room for
# rounding.
def assert_game_solution(P, mu, y):
    assert mu.min() >= 0 and mu.sum() == pytest.approx(1.0, abs=1e-12)
    assert y.min() >= 0 and y.sum() == pytest.approx(1.0, abs=1e-12)
    width = P.max(axis=0).min() - P.min(axis=1).max()
    gap = np.max(P @ mu) - np.min(y @ P)
    assert abs(gap) <= 100 * lipschitz_metric._PIVOT_TOL * max(1.0, width)


def scipy_step(A, b, floor):
    """The step LP as scipy states it: variables (l, t), bounds floor <= l <= 1."""
    sp = pytest.importorskip("scipy.optimize")
    m, n = A.shape
    res = sp.linprog(
        np.r_[np.zeros(n), 1.0],
        A_ub=np.hstack((A, -np.ones((m, 1)))),
        b_ub=b,
        A_eq=np.r_[np.ones(n), 0.0][None],
        b_eq=[1.0],
        bounds=[(floor, 1.0)] * n + [(None, None)],
        method="highs",
        # HiGHS's default 1e-7 tolerances can stop short of the value.
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0
    return res.fun


payoffs = st.one_of(st.integers(-3, 3).map(float), st.floats(-50, 50, allow_nan=False))
games = st.tuples(st.integers(1, 12), st.integers(1, 7)).flatmap(
    lambda shape: st.lists(payoffs, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])
    .map(lambda xs: np.array(xs).reshape(shape))
)


@pytest.fixture(scope="module")
def survey_steps():
    """(A_ub, b_ub, floor, basis) of every LP step classify solves on the
    inputs of the benchmark's classify-survey workload at seeds 0 and 1, with
    the basis the step started from (None for a cold start)."""
    mp = pytest.MonkeyPatch()
    mp.syspath_prepend(str(PERFBENCH))
    import workloads

    steps = []
    solve = lipschitz_metric.linprog

    def recording(A_ub, *, b_ub, floor, basis=None):
        steps.append((A_ub, b_ub, floor, basis))
        return solve(A_ub, b_ub=b_ub, floor=floor, basis=basis)

    mp.setattr(lipschitz_metric, "linprog", recording)
    try:
        for seed in (0, 1):
            survey = workloads.ClassifySurvey(seed)
            for item in survey.inputs:
                survey.run_one(item.payload)
    finally:
        mp.undo()
    return steps


class TestStepLP:
    """The library's step solver against scipy's HiGHS as an oracle."""

    @settings(max_examples=100, deadline=None)
    @given(P=games)
    # Games on which HiGHS at its default tolerances misses the value: it
    # gives 1.56e-9 where the value is 1e-6 / (1 + 1e-6), and -5.96e-8 where
    # it is 0.
    @example(P=np.array([[0, 1, 0, -0.015625, 1, 0], [1, 0, 1, 10, 0, 1e-6]]))
    @example(
        P=np.array(
            [[0, 0, -1, 0, 0, 0, -1], [0] * 7, [0] * 7, [0, 0, 1, 0, 0, 0, -5.960464477539063e-08]],
            dtype=float,
        )
    )
    def test_game_value_matches_scipy(self, P):
        m, n = P.shape
        mu, y, _ = solve_matrix_game(P)
        assert_game_solution(P, mu, y)
        # The game is the step LP with floor 0 and b_ub = 0.
        value = scipy_step(P, np.zeros(m), 0.0)
        assert np.max(P @ mu) == pytest.approx(value, rel=1e-9, abs=1e-9 * max(1.0, np.abs(P).max()))

    @staticmethod
    def assert_steps_match_scipy(steps, warm):
        for A, b, floor, basis in steps:
            n = A.shape[1]
            res = linprog(A, b_ub=b, floor=floor, basis=basis if warm else None)
            assert res.fun == pytest.approx(scipy_step(A, b, floor), rel=1e-9, abs=1e-9)
            assert res.x.sum() == pytest.approx(1.0, abs=1e-12)
            assert res.x.min() >= floor
            P = (1.0 - n * floor) * A + (floor * A.sum(axis=1) - b)[:, None]
            mu = (res.x - floor) / (1.0 - n * floor)
            assert res.fun == pytest.approx(np.max(P @ mu), abs=1e-12)
            assert_game_solution(P, mu, res.y)

    def test_classify_survey_steps_match_scipy(self, survey_steps):
        assert len(survey_steps) >= 200
        self.assert_steps_match_scipy(survey_steps, warm=False)

    def test_classify_survey_warm_steps_match_scipy(self, survey_steps):
        # Each step that classify started from the previous step's basis,
        # replayed from that basis.
        warm = [step for step in survey_steps if step[3] is not None]
        assert len(warm) >= 150
        self.assert_steps_match_scipy(warm, warm=True)

    def test_general_right_hand_side(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            A, b = rng.normal(size=(9, 4)), rng.normal(size=9)
            res = linprog(A, b_ub=b, floor=1e-3)
            assert res.fun == pytest.approx(np.max(A @ res.x - b), abs=1e-12)
            assert res.fun == pytest.approx(scipy_step(A, b, 1e-3), rel=1e-9, abs=1e-9)

    def test_degenerate_game_is_solved(self):
        # Payoffs in {-3..3} times column scales 1e-6..1e6: without Bland's
        # rule the dual simplex cycles on this game until its pivot cap.
        # Spanning 12 orders of magnitude, it is solved to its payoff range.
        rng = np.random.default_rng(578)
        P = rng.integers(-3, 4, size=(30, 12)) * 10.0 ** rng.integers(-6, 7, size=(1, 12))
        mu, y, _ = solve_matrix_game(P)
        assert mu.min() >= 0 and mu.sum() == pytest.approx(1.0, abs=1e-12)
        assert y.min() >= 0 and y.sum() == pytest.approx(1.0, abs=1e-12)
        assert abs(np.max(P @ mu) - np.min(y @ P)) <= 1e-12 * np.ptp(P)

    def test_tableau_rounding_is_cleared(self):
        # Small integers mixed with payoffs from 5e-9 to 50 in size: the
        # pivoted tableau drifts by about 1e-8 on this game, and solving its
        # basis again from the payoffs clears that.
        rng = np.random.default_rng(96)
        payoffs = rng.integers(-3, 4, size=84).astype(float)
        mixed = rng.random(84) < 0.5
        payoffs[mixed] = rng.uniform(-50, 50, size=mixed.sum()) * 10.0 ** rng.integers(
            -9, 1, size=mixed.sum()
        )
        P = payoffs.reshape(12, 7)
        mu, y, _ = solve_matrix_game(P)
        assert_game_solution(P, mu, y)

    def test_saddle_point_game(self):
        P = np.array([[1.0, 3.0], [0.0, -1.0]])  # row 0, column 0 is a saddle point
        mu, y, _ = solve_matrix_game(P)
        assert mu.tolist() == [1.0, 0.0] and y.tolist() == [1.0, 0.0]

    @settings(max_examples=200, deadline=None)
    @given(P=games, data=st.data())
    def test_any_start_basis_gives_an_optimal_pair(self, P, data):
        # Any n distinct tableau columns, singular and dual-infeasible bases
        # included: the solver starts from the all-slack basis instead of
        # those, so the answer is an optimal pair of the same game.
        m, n = P.shape
        basis = np.array(data.draw(st.permutations(range(m + n)))[:n])
        mu, y, _ = solve_matrix_game(P, basis)
        assert_game_solution(P, mu, y)
        cold_mu, cold_y, cold_basis = solve_matrix_game(P)
        assert abs(np.max(P @ mu) - np.max(P @ cold_mu)) <= 1e-12 * np.ptp(P)
        if cold_basis is not None:
            # Started at the optimal basis, the solver returns the cold
            # answer bit for bit: that basis's tableau is solved the same way.
            again = solve_matrix_game(P, cold_basis)
            assert again[2].tolist() == cold_basis.tolist()
            assert again[0].tolist() == cold_mu.tolist() and again[1].tolist() == cold_y.tolist()

    def test_near_singular_start_basis_is_not_used(self):
        # Rows 1-3 of P are proportional, so the basis of their w columns is
        # singular, but rounding lets its solve through with a tableau that
        # looks dual feasible; an answer read from there has a duality gap
        # of 2 on a game of value 0.
        P = np.array([[-2.0, -2.0, 0.0], [0.0, -1.0, 2.0], [0.0, 1.0, -2.0], [0.0, 2.0, -4.0]])
        mu, y, _ = solve_matrix_game(P, np.array([1, 2, 3]))
        assert_game_solution(P, mu, y)
        assert np.max(P @ mu) == pytest.approx(np.min(y @ P), abs=1e-12)

    def test_basis_of_another_shape_is_rejected(self):
        P = np.array([[1.0, 3.0, 0.0], [0.0, -1.0, 2.0]])  # 2 rows, 3 columns
        for bad in ([0, 1], [0, 1, 2, 3], [0, 1, 5], [-1, 0, 1], [2, 2, 3]):
            with pytest.raises(ValueError):
                solve_matrix_game(P, np.array(bad))


class TestMinDisplacement:
    def test_interior_optimum(self):
        m = rose_self_map(EXPANDING)
        rep = minimize_at(m, 1e-6)
        assert abs(rep.lam - GOLDEN_SQ) <= 1e-6
        assert rep.boundary_flag is False
        assert rep.floor == 1e-6
        expected = {1: 1.0 / GOLDEN_SQ, 2: (GOLDEN_SQ - 1.0) / GOLDEN_SQ}
        for e, val in expected.items():
            assert rep.metric.length(e) == pytest.approx(val, abs=1e-4)

    def test_floored_family_tracks_closed_form(self):
        # Petal b stretches by 1/b and wins, so the minimum sits at a = floor.
        m = rose_self_map(REDUCIBLE)
        for floor in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            rep = minimize_at(m, floor)
            exact = 1.0 / (1.0 - floor)
            assert rep.lam == pytest.approx(exact, rel=1e-12)
            assert rep.lower <= exact * (1 + 1e-12)
            assert rep.boundary_flag is True
            assert rep.pinned == (1,)
            assert rep.metric.length(1) >= floor
            assert_bracketing_trace(rep.trace, lipschitz_metric._MAX_STEPS)

    def test_golden_rose_lp_calls(self, lp_calls):
        # A cold start is at the PF lengths, the minimizer; one LP confirms it.
        m = rose_self_map(EXPANDING)
        rep = minimize_at(m, 1e-6)
        assert len(lp_calls) == len(rep.trace) == 1
        assert rep.lower == pytest.approx(GOLDEN_SQ, rel=1e-12)
        assert rep.lower <= rep.lam

    def test_cold_floor_pinned_minimum_takes_few_steps(self, lp_calls):
        # The PF lengths of a -> a, b -> ab are (0, 1), whose lift is the
        # floored minimizer.
        m = rose_self_map(REDUCIBLE)
        for floor in (1e-2, 1e-4, 1e-6):
            lp_calls.clear()
            rep = minimize_at(m, floor)
            assert len(lp_calls) == len(rep.trace) <= 2
            assert rep.lam == pytest.approx(1.0 / (1.0 - floor), rel=1e-12)
            assert rep.pinned == (1,)

    @pytest.mark.parametrize("phi", [REDUCIBLE, RANK4_REDUCIBLE])
    def test_cold_start_lifts_pf_lengths_below_the_floor(self, phi):
        m = rose_self_map(phi)
        g = m.domain.graph
        pf = np.array(pf_eigen(transition_matrix(m))[1])
        assert pf.min() >= 0 and pf.sum() == pytest.approx(1.0, abs=1e-12)
        for floor in (1e-2, 1e-4, 1e-6):
            assert pf.min() < floor  # zero, or a rounding of zero
            rep = minimize_at(m, floor)
            lengths = [rep.metric.length(e) for e in g.edge_ids]
            assert min(lengths) >= floor
            assert sum(lengths) == pytest.approx(1.0, abs=1e-12)

    def test_floored_family_is_monotone(self):
        m = rose_self_map(REDUCIBLE)
        lams = [minimize_at(m, f).lam for f in (1e-2, 1e-3, 1e-4)]
        assert lams[0] > lams[1] > lams[2] >= 1.0

    def test_reducible_rank_four_sweep(self):
        m = rose_self_map(RANK4_REDUCIBLE)
        start = time.monotonic()
        reports = [minimize_at(m, 10.0**-k) for k in range(2, 7)]
        elapsed = time.monotonic() - start
        lams = [rep.lam for rep in reports]
        assert all(a > b for a, b in zip(lams, lams[1:]))
        assert all(lam >= GOLDEN_SQ - 1e-9 for lam in lams)
        assert lams[2] - GOLDEN_SQ <= 0.05
        assert lams[-1] < 2.618036
        assert all(rep.boundary_flag for rep in reports)
        assert elapsed < 10.0

    @pytest.mark.parametrize("phi", [REDUCIBLE, RANK4_REDUCIBLE])
    def test_certified_gap_at_small_floors(self, phi):
        # Minima pinned to a small floor give the step LPs whose payoffs reach
        # about lam / floor while their value nears 0; an LP answer that loses
        # those digits stalls the iteration with the bounds apart.
        m = rose_self_map(phi)
        for k in range(2, 7):
            rep = minimize_at(m, 10.0**-k)
            assert rep.lam - rep.lower <= 1e-9 * rep.lam

    @pytest.mark.xfail(strict=True, reason="a warm floor stops when a step no longer lowers lam")
    def test_certified_gap_on_a_reduction_ladder(self):
        # The reduction certificate of RANK4_REDUCIBLE, down the warm
        # ladder 1e-2 ... 1e-6: floor 1e-5 stops after 5 steps with the
        # bounds 1.13e-8 apart (relative; 1.08e-9 at 1e-6), while a cold run
        # at 1e-5 alone closes the gap to 6.9e-12.
        m = classify(Automorphism.from_text(RANK4_REDUCIBLE)).certificate.graph_map
        for rep in min_displacement_on_simplex(m, tuple(10.0**-k for k in range(2, 7))):
            assert rep.lam - rep.lower <= 1e-9 * rep.lam

    def test_floor_domain_is_checked(self):
        m = rose_self_map(EXPANDING)
        for bad in (0.0, -0.1, 0.5, 0.7):
            with pytest.raises(ValueError):
                minimize_at(m, bad)

    def test_minimum_not_below_growth_rate_of_unreduced_images(self):
        cert = find_train_track(UNREDUCED_IMAGES)
        assert isinstance(cert, TrainTrackCertificate)
        assert cert.lam == pytest.approx(UNREDUCED_IMAGES_LAM, abs=1e-5)
        m = cert.graph_map
        rep = minimize_at(m, 1e-6)
        assert rep.lam >= cert.lam * (1 - 1e-9)

    def test_train_track_minimum_not_below_growth_rate(self, lp_calls):
        rng = random.Random(7)
        checked = 0
        for _ in range(40):
            cert = find_train_track(random_automorphism(3, 12, rng))
            if not isinstance(cert, TrainTrackCertificate):
                continue
            m = cert.graph_map
            lp_calls.clear()
            rep = minimize_at(m, 1e-6)
            assert rep.lam >= cert.lam * (1 - 1e-9)
            assert rep.lower <= cert.lam * (1 + 1e-9)
            lengths = [rep.metric.length(e) for e in m.domain.graph.edge_ids]
            assert min(lengths) >= 1e-6
            assert sum(lengths) == pytest.approx(1.0, abs=1e-12)
            assert len(lp_calls) <= 25
            assert_bracketing_trace(rep.trace, lipschitz_metric._MAX_STEPS)
            checked += 1
        assert checked >= 20

    def test_warm_start_matches_cold_start(self):
        # Rank-3 train tracks and reductions run the classify sweep, each
        # floor after the first starting from the previous floor's minimizer
        # and last LP basis; a one-floor call starts at the PF lengths.
        rng = random.Random(5)
        kinds = {"train_track": 0, "reducible": 0}
        for _ in range(30):
            cert = find_train_track(random_automorphism(3, 12, rng))
            if cert.status not in kinds:
                continue
            kinds[cert.status] += 1
            m = cert.graph_map
            floors = (1e-2, 1e-3, 1e-4)
            ladder = min_displacement_on_simplex(m, floors)
            assert [warm.floor for warm in ladder] == list(floors)
            for warm in ladder:
                cold = minimize_at(m, warm.floor)
                assert warm.lower <= warm.lam and cold.lower <= cold.lam
                # Each lam bounds the minimum from above and each lower from
                # below; the two runs agree within 1e-12 (1.2e-13 at most
                # here: reduction draw 3, floor 1e-3).
                assert warm.lam >= cold.lower and cold.lam >= warm.lower
                assert abs(warm.lam - cold.lam) <= 1e-12 * cold.lam
                assert min(warm.metric.length(e) for e in m.domain.graph.edge_ids) >= warm.floor
        assert kinds["train_track"] >= 5 and kinds["reducible"] >= 5

    def test_ladder_builds_its_rows_once(self, row_builds):
        m = rose_self_map(RANK4_REDUCIBLE)
        ladder = min_displacement_on_simplex(m, (1e-2, 1e-3, 1e-4))
        assert len(row_builds) == 1
        cold = minimize_at(m, 1e-3)
        assert ladder[1].lam == pytest.approx(cold.lam, rel=1e-12)
        assert all(rep.lower <= rep.lam for rep in ladder)

    def test_sweep_starts_pinned_edges_at_the_new_floor(self, lp_calls):
        # The minimizer of a -> a, b -> ab pins edge a to the floor.  Moved
        # to the next floor, it is that floor's minimizer, so from the
        # second floor on one LP confirms each start; the first floor's
        # start, the PF lengths (0, 1), lifts to its minimizer.
        m = rose_self_map(REDUCIBLE)
        floors = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
        ladder = min_displacement_on_simplex(m, floors)
        assert len(lp_calls) == len(floors)
        for floor, rep in zip(floors, ladder):
            assert rep.floor == floor
            assert len(rep.trace) == 1
            assert rep.lam == pytest.approx(1.0 / (1.0 - floor), rel=1e-12)
            assert rep.pinned == (1,)

    def test_repeat_runs_agree(self):
        m = rose_self_map(RANK4_REDUCIBLE)
        first = minimize_at(m, 1e-4)
        second = minimize_at(m, 1e-4)
        assert first == second


class TestClassify:
    def test_finite_order_input(self):
        result = classify(Automorphism.from_text(PERMUTED))
        assert isinstance(result, Elliptic)
        assert result.kind == "elliptic"
        assert result.order == 6

    @pytest.mark.parametrize("cycles, order", [((3, 4, 7), 84), ((3, 5, 7, 1), 105)])
    def test_permutation_of_large_order_is_elliptic(self, cycles, order):
        result = classify(cycle_permutation(cycles))
        assert isinstance(result, Elliptic)
        assert result.order == order

    @pytest.mark.parametrize("steps", [3, 8, 20])
    @pytest.mark.parametrize("cycles, order", [((3, 4, 7), 84), ((3, 5, 7, 1), 105)])
    def test_conjugated_permutation_of_large_order_is_elliptic(self, cycles, order, steps):
        # The fold loop may reduce these conjugates before it reaches a graph
        # automorphism; the reduction exit finds the order, with no cap.
        perm = cycle_permutation(cycles)
        for seed in range(3):
            psi = random_automorphism(perm.rank, steps, random.Random(seed))
            phi = Automorphism(compose(psi.images, compose(perm.images, psi.inverse_images)))
            result = classify(phi)
            assert isinstance(result, Elliptic), (seed, result)
            assert result.order == order
            assert result.certificate.status == "finite_order"

    @pytest.mark.parametrize("steps", [3, 6, 10, 20, 40])
    def test_rank_two_matches_the_closed_form(self, steps):
        # Out(F2) -> GL(2, Z) is an isomorphism (Nielsen), so the trace t and
        # determinant d of the abelianization A decide the class.  For d = -1,
        # A has finite order (2) iff t = 0, else it is hyperbolic.  For d = 1,
        # A = I, -I or |t| < 2 has finite order, |t| > 2 is hyperbolic, and
        # the rest are powers of a Dehn twist up to -I, so parabolic.  The
        # finite orders are those of A; lambda is its spectral radius.
        orders = {(2, 1): 1, (-2, 1): 2, (0, -1): 2, (0, 1): 4, (1, 1): 6, (-1, 1): 3}
        rng = random.Random(steps)
        for _ in range(100):
            phi = random_automorphism(2, steps, rng)
            (a, b), (c, d) = [[sum((x > 0) - (x < 0) for x in w if abs(x) == i) for w in phi.images]
                              for i in (1, 2)]
            t, det = a + d, a * d - b * c
            plus_minus_identity = b == c == 0 and a == d
            finite = t == 0 if det == -1 else plus_minus_identity or abs(t) < 2
            result = classify(phi)
            if finite:
                assert isinstance(result, Elliptic), phi
                assert result.order == orders[t, det]
            elif det == -1 or abs(t) > 2:
                assert isinstance(result, Hyperbolic), phi
                assert result.lam == pytest.approx((abs(t) + math.sqrt(t * t - 4 * det)) / 2,
                                                   rel=1e-9)
            else:
                assert isinstance(result, ParabolicSuspect), phi

    def test_expanding_input(self):
        result = classify(Automorphism.from_text(EXPANDING))
        assert isinstance(result, Hyperbolic)
        assert result.kind == "hyperbolic"
        assert abs(result.lam - GOLDEN_SQ) <= 1e-6
        assert result.simplex.boundary_flag is False
        assert abs(result.certificate.lam - GOLDEN_SQ) <= 1e-9

    def test_train_track_is_settled_by_one_lp(self, lp_calls):
        # The minimization starts at the PF point, which the first LP confirms.
        result = classify(Automorphism.from_text(EXPANDING))
        assert isinstance(result, Hyperbolic)
        assert len(lp_calls) == len(result.simplex.trace) == 1
        assert result.simplex.lower == pytest.approx(GOLDEN_SQ, rel=1e-12)

    def test_classify_survey_lp_calls(self, lp_calls, monkeypatch):
        # Every parabolic_suspect sweep starts its first floor at the map's
        # PF lengths, and each later floor at the better of the previous
        # minimizer and that minimizer with its pinned edges at the new
        # floor; the pass solves 167 LPs.
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads

        survey = workloads.ClassifySurvey(0)
        lp_calls.clear()
        for item in survey.inputs:
            survey.run_one(item.payload)
        assert len(lp_calls) <= 170

    def test_unreduced_images_train_track_is_hyperbolic(self):
        result = classify(UNREDUCED_IMAGES)
        assert isinstance(result, Hyperbolic)
        assert result.lam == pytest.approx(UNREDUCED_IMAGES_LAM, abs=1e-5)
        assert result.simplex.lam >= result.lam * (1 - 1e-9)

    @pytest.mark.parametrize("text", FLOOR_VERTEX_TRAIN_TRACKS)
    def test_floor_vertex_train_track_is_hyperbolic(self, text):
        result = classify(Automorphism.from_text(text))
        assert isinstance(result, Hyperbolic)
        assert result.simplex.lower >= result.lam * (1 - 1e-9)
        assert result.simplex.lam == pytest.approx(result.lam, rel=1e-9)
        metric = result.certificate.graph_map.domain.metric
        assert min(metric.length(e) for e in metric.edge_ids) > 1e-6

    def test_floor_does_not_decide_the_verdict(self, monkeypatch):
        # The golden rose's PF metric has a = 1/GOLDEN_SQ < 0.45, so the
        # floored minimization is pinned above lambda; the bracket decides.
        monkeypatch.setattr(lipschitz_metric, "_CLASSIFY_FLOOR", 0.45)
        result = classify(Automorphism.from_text(EXPANDING))
        assert isinstance(result, Hyperbolic)
        # lambda is the larger root of x^2 - 3x + 1, so lo < lambda < hi
        # exactly iff the quadratic is negative at lo and positive at hi.
        lo, hi = result.bracket
        assert 1 < lo and lo * lo - 3 * lo + 1 < 0 < hi * hi - 3 * hi + 1
        assert result.lam == pytest.approx(GOLDEN_SQ, rel=1e-12)
        assert result.simplex.floor == 0.45
        assert result.simplex.pinned == (1,)
        assert result.simplex.lam > result.lam

    def test_train_track_makes_no_sigma_call(self, monkeypatch):
        calls = []
        real = lipschitz_metric.sigma

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(lipschitz_metric, "sigma", counting)
        for phi in (Automorphism.from_text(EXPANDING), UNREDUCED_IMAGES, Automorphism.from_text(FLOOR_VERTEX_TRAIN_TRACKS[0])):
            assert isinstance(classify(phi), Hyperbolic)
        assert calls == []

    def test_bracket_not_above_one_is_inconclusive(self, monkeypatch):
        monkeypatch.setattr(
            lipschitz_metric, "growth_bracket", lambda M, metric: (Fraction(1), Fraction(3))
        )
        result = classify(Automorphism.from_text(EXPANDING))
        assert isinstance(result, Inconclusive)
        assert result.certificate.status == "train_track"
        assert result.reason == "train track found but its growth bracket [1.0, 3.0] is not above 1"

    def test_rank12_draw6_is_hyperbolic(self):
        # Draw 6 of random_automorphism(12, 80, Random(0)) is a train track
        # whose smallest PF edge is 1.0e-10, far below the 1e-6 floor.
        rng = random.Random(0)
        phi = [random_automorphism(12, 80, rng) for _ in range(7)][6]
        result = classify(phi)
        assert isinstance(result, Hyperbolic)
        cert = result.certificate
        metric = cert.graph_map.domain.metric
        assert min(metric.length(e) for e in metric.edge_ids) < 1e-9
        lo, hi = result.bracket
        assert 1 < lo <= cert.lam <= hi
        assert is_legal(result.loop, cert.structure)
        rows = transition_matrix(cert.graph_map).rows
        assert exceeds_spectral_radius(rows, hi) and not exceeds_spectral_radius(rows, lo)

    def test_survey_witnesses_are_legal_and_brackets_exact(self):
        # The classify-survey base maps: the first 34 rank-3 and 6 rank-4
        # draws of random_automorphism(r, 12, Random(0)).
        train_tracks = 0
        for rank, count in ((3, 34), (4, 6)):
            rng = random.Random(0)
            for _ in range(count):
                result = classify(random_automorphism(rank, 12, rng))
                cert = result.certificate
                if not isinstance(cert, TrainTrackCertificate):
                    continue
                train_tracks += 1
                assert isinstance(result, Hyperbolic)
                assert result.loop.closed
                assert is_legal(result.loop, cert.structure)
                assert is_legal(cert.graph_map.map_path(result.loop), cert.structure)
                # lo <= rho < hi for the spectral radius rho, decided exactly.
                lo, hi = result.bracket
                rows = transition_matrix(cert.graph_map).rows
                assert 1 < lo < hi
                assert exceeds_spectral_radius(rows, hi)
                assert not exceeds_spectral_radius(rows, lo)
                # pf_eigen measures lambda at the vector it returns, a weighted
                # mean of the edge slopes, so it misses the exact bracket only
                # by the rounding of one sum.
                assert lo - 2 * math.ulp(lo) <= cert.lam <= hi + 2 * math.ulp(hi)
        assert train_tracks >= 20

    @pytest.mark.parametrize("phi", [EXPANDING, REDUCIBLE, RANK4_REDUCIBLE])
    def test_one_row_build_per_classify(self, row_builds, phi):
        # A train track's one minimization, or a reduction's 3-floor sweep.
        result = classify(Automorphism.from_text(phi))
        assert isinstance(result, Hyperbolic if phi == EXPANDING else ParabolicSuspect)
        if isinstance(result, ParabolicSuspect):
            assert len(result.sweep) == 3
        assert len(row_builds) == 1

    def test_polynomially_growing_input(self):
        result = classify(Automorphism.from_text(REDUCIBLE))
        assert isinstance(result, ParabolicSuspect)
        assert result.kind == "parabolic_suspect"
        assert result.invariant_chain == (frozenset({1}),)
        assert all(boundary for _, _, boundary in result.sweep)
        lams = [lam for _, lam, _ in result.sweep]
        assert lams == sorted(lams, reverse=True)
        assert lams[-1] < 1.02

    @pytest.mark.parametrize("phi", [REDUCIBLE, RANK4_REDUCIBLE])
    def test_sweep_lambda_never_rises(self, phi, monkeypatch):
        monkeypatch.setattr(lipschitz_metric, "_SWEEP_FLOORS", tuple(10.0**-k for k in range(2, 7)))
        result = classify(Automorphism.from_text(phi))
        lams = [lam for _, lam, _ in result.sweep]
        assert [floor for floor, _, _ in result.sweep] == [10.0**-k for k in range(2, 7)]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(lams, lams[1:]))

    @pytest.mark.parametrize("rank", [3, 4, 5])
    def test_invariant_chain_matches_the_reference(self, rank):
        # Every parabolic_suspect among 40 draws of random_automorphism(rank,
        # 12, Random(rank)): the chain read from the certificate matrix's
        # closures is the reference's, which takes closures per edge on ever
        # smaller submatrices.
        rng = random.Random(rank)
        suspects = 0
        for _ in range(40):
            phi = random_automorphism(rank, 12, rng)
            if isinstance(find_train_track(phi), ReductionCertificate):
                result = classify(phi)
                assert isinstance(result, ParabolicSuspect)
                assert result.invariant_chain == reference_invariant_chain(result.certificate.matrix)
                suspects += 1
        assert suspects > 0

    def test_reducible_exponential_input(self):
        result = classify(Automorphism.from_text(RANK4_REDUCIBLE))
        assert isinstance(result, ParabolicSuspect)
        assert result.invariant_chain == (frozenset({1, 2}),)
        assert all(boundary for _, _, boundary in result.sweep)
        lams = [lam for _, lam, _ in result.sweep]
        assert lams == sorted(lams, reverse=True)
        assert lams[-1] >= GOLDEN_SQ - 1e-9
