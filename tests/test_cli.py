"""End-to-end tests for the command-line front end."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import outerspace
from helpers import GOLDEN_SQ, R4_39, assert_bracketing_trace, distance, exceeds_spectral_radius
from test_certificate_pins import CASES as PINNED_CASES, certificate as pinned_certificate
from outerspace import lipschitz_metric
from outerspace.cli import (
    EXIT_CAP,
    EXIT_INTEGRITY,
    EXIT_OK,
    EXIT_PARSE,
    main,
    point_from_json,
    point_to_json,
)
from outerspace.graph_core import Graph
from outerspace.marked_metric import Automorphism, Metric, act, graph_point, rose_point

RANK10 = "a->ab; b->c; c->d; d->e; e->f; f->g; g->h; h->i; i->j; j->a"
# Reducible maps whose whole-matrix eigen-solve misses the spectral radius: a
# repeated eigenvalue 1 (rank 6), and two golden diagonal blocks (rank 4).
STRATA_MAPS = ("a->D; b->bD; c->f; d->A; e->EbD; f->ce", "a->ab; b->bab; c->cad; d->dcad")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code in (EXIT_OK, EXIT_CAP), err
    return code, json.loads(out)


@pytest.fixture
def quarter_point(tmp_path):
    x = rose_point(2, lengths=(Fraction(1, 4), Fraction(3, 4)))
    path = tmp_path / "x.json"
    path.write_text(json.dumps(point_to_json(x)))
    return str(path)


@pytest.fixture
def half_point(tmp_path):
    y = rose_point(2, lengths=(Fraction(1, 2), Fraction(1, 2)))
    path = tmp_path / "y.json"
    path.write_text(json.dumps(point_to_json(y)))
    return str(path)


class TestTraintrackCommand:
    def test_expanding_map(self, capsys):
        code, report = run_json(capsys, "traintrack", "--map", "a->ab; b->bab")
        assert code == EXIT_OK
        assert report["status"] == "train_track"
        assert report["lambda"] == pytest.approx(GOLDEN_SQ, abs=1e-9)
        assert report["metric"]["a"] == pytest.approx(1 / GOLDEN_SQ, abs=1e-9)
        assert report["metric"]["b"] == pytest.approx(1 - 1 / GOLDEN_SQ, abs=1e-9)
        assert report["gates"] == [["A", "B"], ["a"], ["b"]]
        assert report["edge_images"] == {"a": "ab", "b": "bab"}
        assert report["trace"]

    def test_finite_order_map(self, capsys):
        code, report = run_json(capsys, "traintrack", "--map", "a->B; b->C; c->A")
        assert code == EXIT_OK
        assert report["status"] == "finite_order"
        assert report["order"] == 6
        assert report["lambda"] == 1.0

    def test_rank_27_cyclic_permutation(self, capsys):
        # Generators past z are named e27, e28, ... in the map text and in
        # the report's edge names.
        names = [chr(97 + k) for k in range(26)] + ["e27"]
        text = "; ".join(f"{x}->{names[(k + 1) % 27]}" for k, x in enumerate(names))
        code, report = run_json(capsys, "traintrack", "--map", text)
        assert code == EXIT_OK
        assert report["status"] == "finite_order" and report["order"] == 27
        assert report["edge_images"] == {x: names[(k + 1) % 27] for k, x in enumerate(names)}

    def test_reducible_map(self, capsys):
        code, report = run_json(capsys, "traintrack", "--map", "a->a; b->ab")
        assert code == EXIT_OK
        assert report["status"] == "reducible"
        assert report["subgraph"] == ["a"]
        assert report["matrix"] == [[1, 1], [0, 1]]
        assert report["edge_order"] == ["a", "b"]

    def test_rank_four_reducible_blocks(self, capsys):
        code, report = run_json(
            capsys, "traintrack", "--map", "a->ab; b->bab; c->cad; d->dcad"
        )
        assert code == EXIT_OK
        assert report["status"] == "reducible"
        assert report["subgraph"] == ["a", "b"]
        order = report["edge_order"]
        rows = report["matrix"]
        idx = {name: i for i, name in enumerate(order)}
        top = [[rows[idx[r]][idx[c]] for c in ("a", "b")] for r in ("a", "b")]
        bottom = [[rows[idx[r]][idx[c]] for c in ("c", "d")] for r in ("c", "d")]
        assert top == [[1, 1], [1, 2]]
        assert bottom == [[1, 1], [1, 2]]

    @pytest.mark.parametrize("text", [R4_39, *STRATA_MAPS])
    def test_reducible_lambda_is_the_spectral_radius(self, capsys, text):
        code, report = run_json(capsys, "traintrack", "--map", text)
        assert code == EXIT_OK
        assert report["status"] == "reducible"
        lam, tol = Fraction(report["lambda"]), Fraction(1, 10**9)
        assert exceeds_spectral_radius(report["matrix"], lam + tol)
        assert not exceeds_spectral_radius(report["matrix"], lam - tol)

    @pytest.mark.parametrize("text, lam", zip(STRATA_MAPS, (1.0, 2.61803398875)))
    def test_reducible_lambda_is_solved_on_the_strata(self, capsys, text, lam):
        # A whole-matrix eig read 1.00004327159 and 2.61803401132 here.
        code, report = run_json(capsys, "traintrack", "--map", text)
        assert code == EXIT_OK
        assert report["status"] == "reducible"
        assert report["lambda"] == lam
        assert f" lambda={lam:.12g} " in report["trace"][-1]

    def test_runs_without_eigvals(self, capsys, monkeypatch):
        # pf_eigen's eig call is the library's only eigen-solve: the fold
        # loop reads every spectral radius through it, over the strata, and
        # the report reads the reduction certificate's rho.
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg.eigvals called")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        for name in PINNED_CASES:
            pinned_certificate(name)
        code, report = run_json(capsys, "traintrack", "--map", R4_39)
        assert code == EXIT_OK
        assert report["status"] == "reducible"

    def test_parse_error_exit(self, capsys):
        code, out, err = run_cli(capsys, "traintrack", "--map", "a->ab; b-> q!")
        assert code == EXIT_PARSE
        assert "clause 2" in err

    def test_non_basis_map_is_an_integrity_error(self, capsys):
        code, out, err = run_cli(capsys, "traintrack", "--map", "a->aa; b->b")
        assert code == EXIT_INTEGRITY
        assert "not a homotopy equivalence" in err

    def test_cap_exit(self, capsys):
        code, out, err = run_cli(
            capsys, "traintrack", "--map", "a->aab; b->A", "--max-iters", "3"
        )
        assert code == EXIT_CAP
        assert json.loads(out)["status"] == "max_iters"

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_max_iters_exit(self, capsys, value):
        code, out, err = run_cli(
            capsys, "traintrack", "--map", "a->ab; b->bab", "--max-iters", value
        )
        assert code == EXIT_PARSE
        assert out == ""

    def test_empty_map_exit(self, capsys):
        code, out, err = run_cli(capsys, "traintrack", "--map", "")
        assert code == EXIT_PARSE
        assert out == ""

    def test_byte_determinism(self, capsys):
        outputs = set()
        for _ in range(3):
            _, out, _ = run_cli(capsys, "traintrack", "--map", "a->ab; b->bab")
            outputs.add(out)
        assert len(outputs) == 1


class TestDistanceCommand:
    def test_reference_pair_both_orders(self, capsys, quarter_point, half_point):
        code, report = run_json(
            capsys, "distance", "--point", quarter_point, "--point2", half_point,
            "--both",
        )
        assert code == EXIT_OK
        fwd, back = report["forward"], report["backward"]
        assert fwd["sigma"] == "2"
        assert fwd["log_sigma"] == pytest.approx(math.log(2), abs=1e-11)
        assert fwd["witness"] == [1]
        assert back["sigma"] == "3/2"
        assert back["log_sigma"] == pytest.approx(math.log(1.5), abs=1e-11)
        assert back["witness"] == [2]
        assert len(fwd["table"]) == 4

    def test_identical_points(self, capsys, quarter_point):
        code, report = run_json(
            capsys, "distance", "--point", quarter_point, "--point2", quarter_point
        )
        assert code == EXIT_OK
        assert report["sigma"] == "1"
        assert report["log_sigma"] == 0.0

    def test_missing_file_exit(self, capsys, quarter_point):
        code, out, err = run_cli(
            capsys, "distance", "--point", quarter_point, "--point2", "/nonexistent"
        )
        assert code == EXIT_PARSE

    def test_integrity_exit(self, capsys, tmp_path, quarter_point):
        broken = json.loads((tmp_path / "x.json").read_text())
        broken["inverse_marking"] = {"1": "b", "2": "a"}  # wrong outer class
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(broken))
        code, out, err = run_cli(
            capsys, "distance", "--point", quarter_point, "--point2", str(bad)
        )
        assert code == EXIT_INTEGRITY

    @pytest.mark.parametrize("order", ["bad_first", "bad_second", "candidates"])
    def test_inverse_marking_beyond_the_rank_exit(self, capsys, tmp_path, quarter_point, order):
        # C is one common conjugator of Cac and Cbc, so the marking check
        # alone accepted this file: candidates exited 0, distance from it
        # died on KeyError: -3, and distance to it printed sigma 1.
        data = json.loads((tmp_path / "x.json").read_text())
        data["inverse_marking"] = {"1": "Cac", "2": "Cbc"}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        argv = {
            "bad_first": ("distance", "--point", str(bad), "--point2", quarter_point),
            "bad_second": ("distance", "--point", quarter_point, "--point2", str(bad)),
            "candidates": ("candidates", "--point", str(bad)),
        }[order]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_INTEGRITY, "")
        assert err == "integrity error: inverse marking of edge 1 uses a generator beyond rank 2\n"

    @pytest.mark.parametrize("word", ["b1", 5])
    def test_bad_inverse_marking_word_exit(self, capsys, tmp_path, quarter_point, word):
        data = json.loads((tmp_path / "x.json").read_text())
        data["inverse_marking"]["2"] = word
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, out, err = run_cli(
            capsys, "distance", "--point", quarter_point, "--point2", str(bad)
        )
        assert code == EXIT_PARSE

    def test_rank_mismatch_is_integrity(self, capsys, quarter_point, tmp_path):
        z = rose_point(3)
        other = tmp_path / "z.json"
        other.write_text(json.dumps(point_to_json(z)))
        code, out, err = run_cli(
            capsys, "distance", "--point", quarter_point, "--point2", str(other)
        )
        assert code == EXIT_INTEGRITY


class TestPointRoundTrip:
    def test_serialization_is_lossless(self):
        x = rose_point(2, lengths=(Fraction(1, 4), Fraction(3, 4)))
        again = point_from_json(point_to_json(x))
        assert again.graph.edge_ids == x.graph.edge_ids
        assert all(
            again.metric.length(e) == x.metric.length(e) for e in x.graph.edge_ids
        )
        assert [p.edges for p in again.marking] == [p.edges for p in x.marking]

    def test_rank_three_graph_point_round_trips(self):
        theta_loop = Graph([0, 1], {1: (0, 1), 2: (0, 1), 3: (0, 1), 4: (0, 0)})
        x = graph_point(theta_loop, Metric({1: Fraction(1, 8), 2: Fraction(1, 4),
                                            3: Fraction(3, 8), 4: Fraction(1, 4)}))
        assert x.rank == 3
        again = point_from_json(point_to_json(x))
        assert again.graph == x.graph
        assert again.metric == x.metric
        assert again.basepoint == x.basepoint
        assert [p.edges for p in again.marking] == [p.edges for p in x.marking]
        assert again.inverse_marking() == x.inverse_marking()
        assert point_to_json(again) == point_to_json(x)

    def test_rank_27_points_round_trip(self, capsys, tmp_path):
        # The marking key and inverse-marking word of generator 27 is e27.
        x = rose_point(27)
        data = point_to_json(x)
        assert data["marking"]["e27"] == [27]
        assert data["inverse_marking"]["27"] == "e27"
        again = point_from_json(json.loads(json.dumps(data)))
        assert again.graph == x.graph and again.metric == x.metric
        assert again.inverse_marking() == x.inverse_marking()
        assert point_to_json(again) == data
        y = act(x, Automorphism.from_text("; ".join(
            [f"{chr(97 + k)}->{chr(97 + k)}" for k in range(25)] + ["z->ze27", "e27->e27"])))
        words_of_y = point_to_json(y)["inverse_marking"]
        assert words_of_y["26"] == "z.E27"
        for name, point in (("x", x), ("y", y)):
            (tmp_path / f"{name}.json").write_text(json.dumps(point_to_json(point)))
        code, report = run_json(capsys, "distance", "--point", str(tmp_path / "x.json"),
                                "--point2", str(tmp_path / "y.json"))
        assert code == EXIT_OK and report["sigma"] == "2"

    def test_reparsed_point_reproduces_results(self, capsys, tmp_path):
        x = rose_point(2, lengths=(Fraction(1, 4), Fraction(3, 4)))
        y = rose_point(2, lengths=(Fraction(1, 2), Fraction(1, 2)))
        x2 = point_from_json(point_to_json(x))
        y2 = point_from_json(point_to_json(y))
        assert distance(x2, y2) == distance(x, y)
        assert point_to_json(x2) == point_to_json(x)


class TestClassifyCommand:
    def test_elliptic(self, capsys):
        code, report = run_json(capsys, "classify", "--map", "a->B; b->C; c->A")
        assert code == EXIT_OK
        assert report["kind"] == "elliptic"
        assert report["order"] == 6

    def test_hyperbolic(self, capsys):
        code, report = run_json(capsys, "classify", "--map", "a->ab; b->bab")
        assert code == EXIT_OK
        assert report["kind"] == "hyperbolic"
        assert report["lambda"] == pytest.approx(GOLDEN_SQ, abs=1e-6)
        simplex = report["evidence"]["simplex"]
        assert simplex["boundary_flag"] is False
        assert simplex["pinned"] == []
        assert simplex["lower"] == pytest.approx(GOLDEN_SQ, rel=1e-9)
        assert_bracketing_trace(simplex["trace"], lipschitz_metric._MAX_STEPS)
        assert report["evidence"]["legal_loop"] == "a"
        assert report["evidence"]["bracket"] == [pytest.approx(GOLDEN_SQ, rel=1e-11)] * 2

    def test_floor_does_not_decide_the_verdict(self, capsys, monkeypatch):
        # A floor above the PF length of edge a (1/GOLDEN_SQ) pins the floored
        # minimization above lambda; the verdict rests on the bracket alone.
        monkeypatch.setattr(lipschitz_metric, "_CLASSIFY_FLOOR", 0.45)
        code, report = run_json(capsys, "classify", "--map", "a->ab; b->bab")
        assert code == EXIT_OK
        assert report["kind"] == "hyperbolic"
        evidence = report["evidence"]
        assert evidence["legal_loop"] == "a"
        lo, hi = evidence["bracket"]
        assert 1 < lo <= hi
        assert lo == pytest.approx(GOLDEN_SQ, rel=1e-11)
        assert evidence["metric"]["a"] == pytest.approx(1 / GOLDEN_SQ, rel=1e-9)
        simplex = evidence["simplex"]
        assert simplex["floor"] == 0.45
        assert simplex["pinned"] == ["a"]
        assert simplex["lower"] <= simplex["lambda"]
        assert simplex["lambda"] > GOLDEN_SQ

    def test_stalled_fold_loop_is_inconclusive(self, capsys):
        code, report = run_json(capsys, "classify", "--map", "a->ba; b->c; c->A")
        assert code == EXIT_CAP
        assert report["kind"] == "inconclusive"
        assert report["reason"] == "state of round 8 repeats at round 14 (period 6)"
        assert list(report["evidence"]) == ["trace"]

    def test_parabolic_suspect(self, capsys):
        code, report = run_json(
            capsys, "classify", "--map", "a->ab; b->bab; c->cad; d->dcad"
        )
        assert code == EXIT_OK
        assert report["kind"] == "parabolic_suspect"
        assert report["invariant_chain"] == [["a", "b"]]
        sweep = report["evidence"]["sweep"]
        assert [s["boundary_flag"] for s in sweep] == [True, True, True]
        lams = [s["lambda"] for s in sweep]
        assert lams == sorted(lams, reverse=True)
        assert lams[-1] >= GOLDEN_SQ - 1e-9


class TestCandidatesCommand:
    def test_rose_candidates(self, capsys, quarter_point):
        code, report = run_json(capsys, "candidates", "--point", quarter_point)
        assert code == EXIT_OK
        assert report["count"] == 4
        assert report["candidates"][0] == {"loop": [1], "length": "1/4"}
        assert all("/" in str(c["length"]) or str(c["length"]).isdigit()
                   for c in report["candidates"])

    def test_non_integer_ids_are_refused(self, capsys, tmp_path):
        # Read with int(), this file was the rank-2 rose and exited 0.
        rose = {
            "vertices": [0.9],
            "edges": [{"id": 1.7, "endpoints": [0.9, 0.9]},
                      {"id": 2.2, "endpoints": [0.9, 0.9]}],
            "basepoint": 0.5,
            "lengths": {"1": "1/4", "2": "3/4"},
            "marking": {"a": [1.3], "b": [2.9]},
            "inverse_marking": {"1": "a", "2": "b"},
        }
        path = tmp_path / "floats.json"
        path.write_text(json.dumps(rose))
        code, out, err = run_cli(capsys, "candidates", "--point", str(path))
        assert code == EXIT_PARSE
        assert "vertex must be an integer" in err

    @pytest.mark.parametrize("field, value, named", [
        ("vertices", [True], "vertex"),
        ("edges", [{"id": 1.0, "endpoints": [0, 0]}, {"id": 2, "endpoints": [0, 0]}],
         "edge id"),
        ("edges", [{"id": 1, "endpoints": [0, 0.0]}, {"id": 2, "endpoints": [0, 0]}],
         "endpoint"),
        ("basepoint", False, "basepoint"),
        ("marking", {"a": [1], "b": [2.0]}, "marking entry of 'b'"),
    ])
    def test_each_id_field_is_named(self, capsys, tmp_path, quarter_point, field, value, named):
        data = json.loads((tmp_path / "x.json").read_text())
        data[field] = value
        (tmp_path / "x.json").write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "candidates", "--point", quarter_point)
        assert code == EXIT_PARSE
        assert f"{named} must be an integer" in err

    @pytest.mark.parametrize("field, value, message", [
        # Each of these printed Python's own wording after "malformed point
        # file: ", such as 'NoneType' object has no attribute 'items'.
        ("lengths", None, "lengths must be an object, got None"),
        ("marking", True, "marking must be an object, got True"),
        ("edges", 5, "edges must be a list, got 5"),
        ("vertices", None, "vertices must be a list, got None"),
        ("inverse_marking", [1], "inverse_marking must be an object, got [1]"),
        ("marking", {"a": 3, "b": [2]}, "marking loop of 'a' must be a list, got 3"),
        ("inverse_marking", {"1": "a", "2": 5},
         "inverse_marking entry of '2' must be a string, got 5"),
        ("edges", [{"id": 1, "endpoints": [0]}, {"id": 2, "endpoints": [0, 0]}],
         "endpoints of edge 1 must be 2 vertices, got 1"),
        ("edges", [5, {"id": 2, "endpoints": [0, 0]}], "edge record must be an object, got 5"),
        # Volume 1, but one length is negative: this printed all 402 characters of it.
        ("lengths", {"1": str(Fraction(1, 2) + 10**400), "2": str(Fraction(1, 2) - 10**400)},
         "length of edge 2 must be positive, got -199999999999...999999999999/2"),
    ], ids=["lengths", "marking", "edges", "vertices", "inverse_marking", "marking_loop",
            "inverse_marking_word", "endpoints", "edge_record", "long_length"])
    def test_each_malformed_field_is_named(self, capsys, tmp_path, quarter_point, field, value,
                                           message):
        data = json.loads((tmp_path / "x.json").read_text())
        data[field] = value
        (tmp_path / "x.json").write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "candidates", "--point", quarter_point)
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"error: {message}\n"
        assert len(err) < 100

    @pytest.mark.parametrize("edit, code, message", [
        (lambda data: {**data, "basepoint": 5}, EXIT_PARSE, "basepoint 5 is not a vertex"),
        (lambda data: {**data, "lengths": {"1": "1"}}, EXIT_PARSE,
         "metric edges do not match graph edges"),
        (lambda data: {**data, "inverse_marking": {"1": "a"}}, EXIT_PARSE,
         "inverse marking must cover exactly the graph edges"),
        (lambda data: {**data, "marking": {"a": [1], "c": [2]}}, EXIT_PARSE,
         "marking is missing generator 'b'"),
        # The theta graph's marking loops run from vertex 0, not from vertex 1.
        (lambda data: {**point_to_json(graph_point(
            Graph([0, 1], {1: (0, 1), 2: (0, 1), 3: (0, 1)}),
            Metric({1: Fraction(1, 4), 2: Fraction(1, 4), 3: Fraction(1, 2)}))), "basepoint": 1},
         EXIT_INTEGRITY, "marking loops must be based at the basepoint"),
        (lambda data: json.dumps(data)[:-1], EXIT_PARSE, "is not valid JSON"),
        (lambda data: [data], EXIT_PARSE, "point file must be an object, got [{"),
    ], ids=["basepoint", "metric_edges", "inverse_marking_edges", "missing_generator",
            "marking_basepoint", "not_json", "not_an_object"])
    def test_each_point_check_refuses(self, capsys, tmp_path, quarter_point, edit, code, message):
        data = edit(json.loads((tmp_path / "x.json").read_text()))
        (tmp_path / "x.json").write_text(data if isinstance(data, str) else json.dumps(data))
        got, out, err = run_cli(capsys, "candidates", "--point", quarter_point)
        assert (got, out) == (code, "")
        assert message in err

    def test_edge_keys_are_read_as_point_to_json_writes_them(self, capsys, tmp_path):
        # Read with int(), this rose was the one of quarter_point and exited 0.
        x = point_to_json(rose_point(2, lengths=(Fraction(1, 4), Fraction(3, 4))))
        x["lengths"] = {"1": "1/4", "+2": "3/4"}
        x["inverse_marking"] = {"01": "a", " 2": "b"}
        path = tmp_path / "keys.json"
        path.write_text(json.dumps(x))
        code, out, err = run_cli(capsys, "candidates", "--point", str(path))
        assert (code, out) == (EXIT_PARSE, "")
        assert "lengths key must be a decimal edge id, got '+2'" in err

    @pytest.mark.parametrize("field", ["lengths", "inverse_marking"])
    @pytest.mark.parametrize("key", ["+2", " 2", "2 ", "02", "0_2", "\u0662", "-2", "2.0", ""])
    def test_each_edge_key_field_is_named(self, capsys, tmp_path, quarter_point, field, key):
        data = json.loads((tmp_path / "x.json").read_text())
        data[field][key] = data[field].pop("2")
        (tmp_path / "x.json").write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "candidates", "--point", quarter_point)
        assert code == EXIT_PARSE
        assert f"{field} key must be a decimal edge id, got {key!r}" in err

    def test_one_edge_spelled_twice_is_refused(self, capsys, tmp_path, quarter_point):
        # Read with int(), the last spelling won: edge 1 had length 1/4.
        data = json.loads((tmp_path / "x.json").read_text())
        data["lengths"] = {"1": "1/2", "2": "3/4", "01": "1/4"}
        (tmp_path / "x.json").write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "candidates", "--point", quarter_point)
        assert code == EXIT_PARSE
        assert "lengths key must be a decimal edge id, got '01'" in err

    @pytest.mark.parametrize("vertices, edges, named", [
        # Read into a dict, the second record of edge 1 replaced the first,
        # and this file was the rank-2 rose and exited 0.
        ([0], [[0, 0], [0, 0], [0, 0]], "edge id 1"),
        # The dropped record held vertex 7's only edge: this exited 4, "point
        # graphs must be connected".
        ([0, 7], [[0, 7], [0, 0], [0, 0]], "edge id 1"),
        # Read into a set, the rose's vertex was kept once and this exited 0.
        ([0, 0], [[0, 0], [0, 0]], "vertex 0"),
    ], ids=["edge", "edge_of_a_vertex", "vertex"])
    def test_repeated_id_is_refused(self, capsys, tmp_path, quarter_point, vertices, edges, named):
        data = json.loads((tmp_path / "x.json").read_text())
        data["vertices"] = vertices
        ids = [1] + list(range(1, len(edges)))
        data["edges"] = [{"id": e, "endpoints": ends} for e, ends in zip(ids, edges)]
        (tmp_path / "x.json").write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "candidates", "--point", quarter_point)
        assert (code, out) == (EXIT_PARSE, "")
        assert f"{named} is listed twice" in err

    @pytest.mark.parametrize("field, key", [
        ("lengths", "1"), ("marking", "a"), ("inverse_marking", "1")])
    def test_repeated_key_is_refused(self, capsys, tmp_path, quarter_point, field, key):
        # json.load kept the key's last value: each of these files was the
        # rank-2 rose and exited 0.
        data = json.loads((tmp_path / "x.json").read_text())
        text = json.dumps(data[field])[1:]
        (tmp_path / "x.json").write_text(json.dumps(data).replace(
            text, f"{json.dumps(key)}: {json.dumps(data[field][key])}, {text}"))
        code, out, err = run_cli(capsys, "candidates", "--point", quarter_point)
        assert (code, out) == (EXIT_PARSE, "")
        assert f"key {key!r} is listed twice" in err

    @pytest.mark.parametrize("value", [True, False, None, [1]])
    def test_length_must_be_a_number(self, capsys, tmp_path, quarter_point, value):
        data = json.loads((tmp_path / "x.json").read_text())
        data["lengths"]["2"] = value
        (tmp_path / "x.json").write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "candidates", "--point", quarter_point)
        assert code == EXIT_PARSE
        assert f"lengths entry of '2' must be a number, got {value!r}" in err

    def test_lengths_must_sum_to_one(self, capsys, tmp_path, quarter_point):
        data = json.loads((tmp_path / "x.json").read_text())
        data["lengths"] = {"1": "1/4", "2": "1/4"}
        (tmp_path / "x.json").write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "candidates", "--point", quarter_point)
        assert code == EXIT_PARSE
        assert "metric volume 1/2 is not 1" in err

    def test_valence_two_vertex_is_refused(self, capsys, tmp_path):
        # The rank-2 rose with edge 1 subdivided at vertex 1: a valid marked
        # graph, but not a point of Outer space as a file states it.
        subdivided = {
            "vertices": [0, 1],
            "edges": [{"id": 1, "endpoints": [0, 1]}, {"id": 2, "endpoints": [1, 0]},
                      {"id": 3, "endpoints": [0, 0]}],
            "basepoint": 0,
            "lengths": {"1": "1/4", "2": "1/4", "3": "1/2"},
            "marking": {"a": [1, 2], "b": [3]},
            "inverse_marking": {"1": "a", "2": "", "3": "b"},
        }
        path = tmp_path / "subdivided.json"
        path.write_text(json.dumps(subdivided))
        code, out, err = run_cli(capsys, "candidates", "--point", str(path))
        assert code == EXIT_INTEGRITY
        assert "valence-2 vertices must be unsubdivided" in err


class TestMinimizeCommand:
    @pytest.mark.parametrize("floor", ["1e-3", "1e-6"])
    def test_floored_minimum(self, capsys, floor):
        # The PF lengths (0, 1) lift to the floored minimizer, with edge a
        # pinned, settled by the first LP step or the second.
        code, report = run_json(capsys, "minimize", "--map", "a->a; b->ab", "--floor", floor)
        assert code == EXIT_OK
        assert report["lambda"] == pytest.approx(1.0 / (1.0 - float(floor)), abs=1e-11)
        assert report["boundary_flag"] is True
        assert report["pinned"] == ["a"]
        assert len(report["trace"]) <= 2
        assert_bracketing_trace(report["trace"], lipschitz_metric._MAX_STEPS)

    def test_interior_minimum(self, capsys):
        code, report = run_json(
            capsys, "minimize", "--map", "a->ab; b->bab", "--floor", "1e-6"
        )
        assert code == EXIT_OK
        assert report["lambda"] == pytest.approx(GOLDEN_SQ, abs=1e-6)
        assert report["boundary_flag"] is False

    def test_removed_knobs_are_rejected(self, capsys, quarter_point, half_point):
        for argv in (
            ("minimize", "--map", "a->ab; b->bab", "--max-iters", "5"),
            ("minimize", "--map", "a->ab; b->bab", "--tol", "1e-9"),
            ("classify", "--map", "a->ab; b->bab", "--tol", "1e-9"),
            ("traintrack", "--map", "a->ab; b->bab", "--tol", "1e-9"),
            ("traintrack", "--map", "a->ab; b->bab", "--seed", "1"),
            ("classify", "--map", "a->ab; b->bab", "--seed", "1"),
            ("minimize", "--map", "a->ab; b->bab", "--seed", "1"),
            ("candidates", "--point", quarter_point, "--seed", "1"),
            ("distance", "--point", quarter_point, "--point2", half_point, "--seed", "1"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == EXIT_PARSE

    @pytest.mark.parametrize("floor", ["0.9", "-1e-3"])
    def test_bad_floor_exit(self, capsys, floor):
        # A floor written with a sign and an exponent is a number, not an option.
        code, out, err = run_cli(
            capsys, "minimize", "--map", "a->ab; b->bab", "--floor", floor
        )
        assert code == EXIT_PARSE
        assert err == "error: floor must lie strictly between 0 and 1/2\n"

    def test_floor_ladder(self, capsys):
        # Several floors are one minimization with one report per floor, in
        # order.  The rank-4 reduction's minimizer stays pinned to the floor
        # while lambda keeps falling: its infimum is on no floor.
        floors = [f"1e-{k}" for k in range(1, 7)]
        code, reports = run_json(
            capsys, "minimize", "--map", "a->ab; b->bab; c->cad; d->dcad", "--floor", *floors
        )
        assert code == EXIT_OK
        assert [rep["floor"] for rep in reports] == [float(f) for f in floors]
        assert all(rep["boundary_flag"] is True and rep["pinned"] for rep in reports)
        lams = [rep["lambda"] for rep in reports]
        assert lams == sorted(lams, reverse=True)

    def test_floor_needs_a_value(self, capsys):
        code, out, err = run_cli(capsys, "minimize", "--map", "a->ab; b->bab", "--floor")
        assert code == EXIT_PARSE and out == ""

    def test_ladder_floor_not_below_one_over_rank_exit(self, capsys):
        # Every floor must lie below 1/rank; 1e-1 does not at rank 10, so
        # nothing is printed, not even the report for 1e-2.
        code, out, err = run_cli(capsys, "minimize", "--map", RANK10, "--floor", "1e-1", "1e-2")
        assert code == EXIT_PARSE and out == ""
        assert "1/10" in err
        # 1e-2 alone is below 1/10, and one floor prints one report.
        code, report = run_json(capsys, "minimize", "--map", RANK10, "--floor", "1e-2")
        assert code == EXIT_OK and report["floor"] == 1e-2


class TestArgumentHandling:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_PARSE

    def test_text_mode(self, capsys):
        code, out, err = run_cli(
            capsys, "traintrack", "--map", "a->ab; b->bab", "--text"
        )
        assert code == EXIT_OK
        assert "status: train_track" in out
        assert "- [A B]" in out

    def test_json_text_exclusive(self, capsys):
        assert main(["traintrack", "--map", "a->ab; b->bab", "--json", "--text"]) == EXIT_PARSE


def test_commands_run_without_scipy():
    # numpy is the only runtime dependency: with scipy made unimportable,
    # classify and minimize still run on the README maps and load no scipy.
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import outerspace.cli\n"
        "codes = [outerspace.cli.main(argv) for argv in (\n"
        "    ['classify', '--map', 'a->ab; b->bab'],\n"
        "    ['classify', '--map', 'a->B; b->C; c->A'],\n"
        "    ['classify', '--map', 'a->a; b->ab'],\n"
        "    ['classify', '--map', 'a->ab; b->bab; c->cad; d->dcad'],\n"
        "    ['minimize', '--map', 'a->ab; b->bab', '--floor', '1e-6'],\n"
        "    ['minimize', '--map', 'a->ab; b->bab; c->cad; d->dcad', '--floor', '1e-4'],\n"
        ")]\n"
        "loaded = sorted(m for m, v in sys.modules.items() if m.split('.')[0] == 'scipy' and v)\n"
        "print(codes, loaded, file=sys.stderr)\n"
    )
    src = os.path.dirname(os.path.dirname(outerspace.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert out.stderr.strip() == f"{[EXIT_OK] * 6} []"


def test_unsolved_lp_step_is_an_integrity_failure(capsys, monkeypatch):
    def fail(P, basis=None):
        raise lipschitz_metric.GameSolveError("no column can enter")

    monkeypatch.setattr(lipschitz_metric, "solve_matrix_game", fail)
    code, out, err = run_cli(capsys, "minimize", "--map", "a->ab; b->bab")
    assert code == EXIT_INTEGRITY
    assert "no column can enter" in err


def run_script(script, *argv):
    src = os.path.dirname(os.path.dirname(outerspace.__file__))
    path = os.path.join(os.path.dirname(src), "scripts", script)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, path, *argv], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("script, argv", [
    ("random_survey.py", ["--samples", "0"]),
    ("random_survey.py", ["--rank", "1"]),
    ("random_survey.py", ["--steps", "-3"]),
])
def test_scripts_refuse_unusable_arguments(script, argv):
    # Each was a traceback, a ZeroDivisionError or a survey of identity
    # maps before argparse checked it; now it is a usage error with exit
    # code 2.
    out = run_script(script, *argv)
    assert out.returncode == EXIT_PARSE, out.stderr
    assert out.stdout == "" and "usage:" in out.stderr


def test_survey_tallies_sum_to_the_samples():
    out = run_script("random_survey.py", "--rank", "3", "--samples", "20", "--seed", "7")
    assert out.returncode == EXIT_OK, out.stderr
    tally = [int(m.group(1)) for line in out.stdout.splitlines()
             for m in [re.match(r"\s+\w+Certificate\s+(\d+)\s", line)] if m]
    assert len(tally) == 4 and sum(tally) == 20, out.stdout


@pytest.mark.parametrize("command", ["classify", "minimize"])
def test_non_basis_map_is_an_integrity_error(capsys, command):
    # As on traintrack: the map's inverse is computed when it is parsed.
    code, out, err = run_cli(capsys, command, "--map", "a->aa; b->b")
    assert code == EXIT_INTEGRITY and out == ""
    assert "not a homotopy equivalence" in err


@pytest.mark.parametrize("command", ["traintrack", "classify", "minimize"])
def test_empty_image_map_is_an_integrity_error(capsys, command):
    # a->aA has the empty word as an image: no basis, so the same exit 4.
    code, out, err = run_cli(capsys, command, "--map", "a->aA; b->b")
    assert code == EXIT_INTEGRITY and out == ""
    assert "not a homotopy equivalence" in err
