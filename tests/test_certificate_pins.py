"""Whole fold-loop certificates, pinned to the last bit.

Each case is a map (most of them draws of ``random_automorphism`` at ranks
3-5) whose fold loop takes a path worth keeping exact: a forest collapse, a
blocked valence-two slide (the trial branch of ``unsubdivide_pass``), a
reduction, a train track after two folds, a finite order found inside the
loop, and repeated states.  The expected fields live in
``certificate_pins.json``; after a deliberate change of results, regenerate
every pin file with ``PYTHONPATH=src python tests/regen.py``.
"""

import json
from pathlib import Path

import pytest

from outerspace import train_track_algo
from outerspace.marked_metric import Automorphism
from outerspace.train_track_algo import find_train_track

PINS = Path(__file__).with_name("certificate_pins.json")

# name -> (map, where the map came from)
CASES = {
    "r3_collapse_slide_reduction": (
        "a->ABCAA; b->aac; c->ABCAAA", "random_automorphism(3, 12, Random(0)) draw 1"),
    "r3_slide_train_track": (
        "a->cbcA; b->cbcACBcbcAA; c->A", "random_automorphism(3, 12, Random(0)) draw 2"),
    "r4_collapse_slide_train_track": (
        "a->AD; b->cdabAD; c->bAB; d->bAD", "random_automorphism(4, 12, Random(0)) draw 12"),
    "r4_slide_train_track": (
        "a->CdbcaC; b->bc; c->dbc; d->aC", "random_automorphism(4, 12, Random(0)) draw 8"),
    "r4_reduction": (
        "a->C; b->BA; c->CD; d->CDaC", "random_automorphism(4, 12, Random(0)) draw 0"),
    "r4_stalled": (
        "a->c; b->ab; c->d; d->B", "random_automorphism(4, 12, Random(0)) draw 58"),
    "r5_collapse_slide_train_track": (
        "a->E; b->bcb; c->eADE; d->DEcb; e->cb",
        "random_automorphism(5, 12, Random(0)) draw 11"),
    "r5_slide_train_track": (
        "a->B; b->beadce; c->be; d->bea; e->ad",
        "random_automorphism(5, 12, Random(0)) draw 1"),
    "r5_reduction": (
        "a->ea; b->b; c->EBde; d->deea; e->debC",
        "random_automorphism(5, 12, Random(0)) draw 0"),
    "r3_finite_order_in_loop": (
        "a->Bcbb; b->BBC; c->BAcbbcbb",
        "a cyclic permutation conjugated by random_automorphism(3, 3, Random(3))"),
    "r4_finite_order_in_loop": (
        "a->BBC; b->dBC; c->DcbD; d->A",
        "a cyclic permutation conjugated by random_automorphism(4, 3, Random(4))"),
    "r5_finite_order_in_loop": (
        "a->B; b->ec; c->abd; d->CEE; e->A",
        "a cyclic permutation conjugated by random_automorphism(5, 3, Random(5))"),
    "r3_stalled": ("a->ba; b->c; c->A", "a short map whose fold loop repeats a state"),
    "r2_collapse_forest": ("a->aBA; b->abb", "a short map whose folds leave a point-image forest"),
    "r2_reduction": ("a->b; b->BBA", "a short map that one fold makes reducible"),
    "r2_fold_train_track": ("a->aabab; b->Babab", "a short map that two folds make a train track"),
}


def describe(cert) -> dict:
    """Every field of a certificate, floats by repr."""
    out = {"status": cert.status, "trace": list(cert.trace)}
    if hasattr(cert, "lam"):
        out["lam"] = repr(cert.lam)
        out["metric"] = repr(cert.metric)
        out["gates"] = repr(cert.structure)
    if hasattr(cert, "subset"):
        out["subset"] = sorted(cert.subset)
        out["matrix"] = [list(cert.matrix.edge_ids), [list(r) for r in cert.matrix.rows]]
    if hasattr(cert, "order"):
        out["order"] = cert.order
    if hasattr(cert, "reason"):
        out["reason"] = cert.reason
    m = getattr(cert, "graph_map", None)
    if m is not None:
        out["images"] = [[e, list(p.edges)] for e, p in sorted(m.edge_image.items())]
        out["vertex_image"] = sorted(m.vertex_image.items())
        for side, x in (("domain", m.domain), ("codomain", m.codomain)):
            out[side] = {
                "graph": repr(x.graph),
                "metric": repr(x.metric),
                "marking": [list(p.edges) for p in x.marking],
                "basepoint": x.basepoint,
            }
    return json.loads(json.dumps(out))


def certificate(name):
    return find_train_track(Automorphism.from_text(CASES[name][0]))


def pin_text() -> str:
    return json.dumps({n: describe(certificate(n)) for n in sorted(CASES)}, indent=1) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_certificate_pinned(name):
    assert describe(certificate(name)) == json.loads(PINS.read_text())[name]


def test_cases_reach_their_paths(monkeypatch):
    slid = []
    slide = train_track_algo._MapState._slide_images_off
    monkeypatch.setattr(train_track_algo._MapState, "_slide_images_off",
                        lambda st, v, along: slid.append(v) or slide(st, v, along))
    for name in sorted(CASES):
        if "slide" in name:
            slid.clear()
            certificate(name)
            assert slid, name
    pins = json.loads(PINS.read_text())
    assert set(pins) == set(CASES)
    moves = {name: " ".join(p["trace"]) for name, p in pins.items()}
    assert "collapse_forest" in moves["r4_collapse_slide_train_track"]
    assert pins["r3_collapse_slide_reduction"]["status"] == "reducible"
    assert pins["r3_finite_order_in_loop"]["trace"][-1].endswith("finite_order(6)")
    assert pins["r4_stalled"]["trace"][-1].endswith("move=repeat(8)")
