"""Acceptance suite: every shipped guarantee as one pass/fail line.

Each test exercises a public entry point end to end (CLI report, displacement
minimizer, metric axioms, oracle equivalence, certificate scaling law,
byte-level determinism) and asserts the frozen expected values and runtime
budgets directly.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction

from helpers import (
    EXPANDING,
    GOLDEN_SQ,
    PERMUTED,
    RANK4_REDUCIBLE,
    REDUCIBLE,
    connected_core_graphs,
    distance,
    exact_max_ratio,
    identity_map_between,
    immersed_loop_vectors,
    minimize_at,
    spanning_tree_point,
    with_metric,
)
from outerspace.cli import EXIT_OK, main
from outerspace.graph_core import EdgePath
from outerspace.graph_map import (
    difference_of_markings,
    is_legal,
    self_map_from_automorphism,
)
from outerspace.lipschitz_metric import (
    Hyperbolic,
    classify,
    sigma,
)
from outerspace.marked_metric import (
    Automorphism,
    act,
    candidates,
    random_automorphism,
    random_unit_metric,
    rose_point,
)
from outerspace.train_track_algo import TrainTrackCertificate, find_train_track
from outerspace.words import cyclic_reduce


def run_traintrack(capsys, spec: str):
    """Run the traintrack subcommand, returning (exit code, stdout, seconds)."""
    start = time.perf_counter()
    code = main(["traintrack", "--map", spec])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    return code, out, elapsed


def loop_len(metric, path: EdgePath) -> float:
    """Length of the immersed representative of a closed path."""
    return sum(float(metric.length(abs(d))) for d in cyclic_reduce(path.edges))


def test_criterion_1_expanding_rose_end_to_end(capsys):
    code, out, elapsed = run_traintrack(capsys, EXPANDING)
    report = json.loads(out)
    assert code == EXIT_OK
    assert report["status"] == "train_track"
    assert abs(report["lambda"] - 2.618033988749895) <= 1e-9
    assert abs(report["metric"]["a"] - 0.381966011250105) <= 1e-9
    assert abs(report["metric"]["b"] - 0.618033988749895) <= 1e-9
    assert report["gates"] == [["A", "B"], ["a"], ["b"]]
    assert elapsed < 1.0


def test_criterion_2_order_six_permutation(capsys):
    code, out, elapsed = run_traintrack(capsys, PERMUTED)
    report = json.loads(out)
    assert code == EXIT_OK
    assert report["status"] == "finite_order"
    assert report["order"] == 6
    assert elapsed < 1.0


def test_criterion_3_reducible_maps_and_blocks(capsys):
    code, out, _ = run_traintrack(capsys, REDUCIBLE)
    report = json.loads(out)
    assert code == EXIT_OK
    assert report["status"] == "reducible"
    assert report["subgraph"] == ["a"]

    code, out, _ = run_traintrack(capsys, RANK4_REDUCIBLE)
    report = json.loads(out)
    assert code == EXIT_OK
    assert report["status"] == "reducible"
    assert report["subgraph"] == ["a", "b"]
    idx = {name: i for i, name in enumerate(report["edge_order"])}
    rows = report["matrix"]
    blocks = [
        [[rows[idx[r]][idx[c]] for c in pair] for r in pair]
        for pair in (("a", "b"), ("c", "d"))
    ]
    assert blocks[0] == [[1, 1], [1, 2]]
    assert blocks[1] == [[1, 1], [1, 2]]


def test_criterion_4_unrealized_infimum_trend():
    m = self_map_from_automorphism(
        rose_point(4), Automorphism.from_text(RANK4_REDUCIBLE)
    )
    start = time.perf_counter()
    reports = [minimize_at(m, floor) for floor in (1e-2, 1e-3, 1e-4)]
    elapsed = time.perf_counter() - start
    lams = [rep.lam for rep in reports]
    assert lams[0] > lams[1] > lams[2]
    assert all(lam >= GOLDEN_SQ - 1e-9 for lam in lams)
    assert lams[2] - GOLDEN_SQ <= 0.05
    assert all(rep.boundary_flag for rep in reports)
    assert elapsed < 10.0


def test_criterion_5_interior_minimum_matches_growth_rate():
    m = self_map_from_automorphism(
        rose_point(2), Automorphism.from_text(EXPANDING)
    )
    rep = minimize_at(m, 1e-6)
    assert abs(rep.lam - GOLDEN_SQ) <= 1e-6
    assert rep.boundary_flag is False


def test_criterion_6_candidate_sigma_equals_loop_oracle():
    start = time.perf_counter()
    rng = random.Random(20260815)
    graphs = connected_core_graphs(4)
    assert len(graphs) >= 1
    checked = 0
    for g in graphs:
        vectors = immersed_loop_vectors(g, 12)
        ids = g.edge_ids
        template = spanning_tree_point(g, random_unit_metric(ids, rng))
        for _ in range(50):
            mx = random_unit_metric(ids, rng)
            my = random_unit_metric(ids, rng)
            x = with_metric(template, mx)
            y = with_metric(template, my)
            rep = sigma(x, y, identity_map_between(x, y))
            assert isinstance(rep.sigma, Fraction)
            assert rep.sigma == exact_max_ratio(vectors, mx, my, ids)
            checked += 1
    assert checked == 50 * len(graphs)
    assert time.perf_counter() - start < 60.0


def _random_point(rank: int, rng: random.Random):
    base = rose_point(rank)
    metric = random_unit_metric(base.graph.edge_ids, rng)
    phi = random_automorphism(rank, rng.randrange(0, 5), rng)
    return act(with_metric(base, metric), phi)


def test_criterion_7_metric_axioms():
    rng = random.Random(7)
    for _ in range(100):
        rank = rng.choice((2, 3))
        x, y, z = (_random_point(rank, rng) for _ in range(3))
        assert distance(x, z) <= distance(x, y) + distance(y, z) + 1e-9
    for _ in range(100):
        rank = rng.choice((2, 3))
        x, y = (_random_point(rank, rng) for _ in range(2))
        phi = random_automorphism(rank, rng.randrange(0, 5), rng)
        moved = distance(act(x, phi), act(y, phi))
        assert abs(moved - distance(x, y)) <= 1e-9

    x = rose_point(2, lengths=(Fraction(1, 4), Fraction(3, 4)))
    y = rose_point(2, lengths=(Fraction(1, 2), Fraction(1, 2)))
    fwd = sigma(x, y, difference_of_markings(x, y))
    back = sigma(y, x, difference_of_markings(y, x))
    assert fwd.sigma == Fraction(2)
    assert back.sigma == Fraction(3, 2)
    assert fwd.log_sigma == math.log(2.0)
    assert back.log_sigma == math.log(1.5)


def _scaling_law_holds(cert: TrainTrackCertificate) -> None:
    m = cert.graph_map
    legal = [
        c.loop for c in candidates(m.domain) if is_legal(c.loop, cert.structure)
    ]
    assert len(set(tuple(p.edges) for p in legal[:3])) == 3
    for alpha in legal[:3]:
        base_len = loop_len(m.domain.metric, alpha)
        path = alpha
        for k in range(1, 6):
            path = m.map_path(path)
            expected = cert.lam**k * base_len
            assert abs(loop_len(m.domain.metric, path) - expected) <= 1e-6 * expected


def test_criterion_8_legal_loops_scale_by_lambda_powers():
    direct = find_train_track(Automorphism.from_text(EXPANDING))
    assert isinstance(direct, TrainTrackCertificate)
    _scaling_law_holds(direct)

    result = classify(Automorphism.from_text(EXPANDING))
    assert isinstance(result, Hyperbolic)
    _scaling_law_holds(result.certificate)


def test_criterion_9_byte_identical_reports(capsys):
    for spec in (EXPANDING, PERMUTED, REDUCIBLE, RANK4_REDUCIBLE):
        outputs = set()
        for _ in range(3):
            code = main(["traintrack", "--map", spec])
            outputs.add(capsys.readouterr().out.encode("utf-8"))
            assert code == EXIT_OK
        assert len(outputs) == 1
