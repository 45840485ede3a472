"""Displacement minimizer reports, pinned to the last bit.

Two sources of reports: the minimizations `classify` runs on the base sample
of the ``classify-survey`` benchmark workload (the first 34 rank-3 and 6
rank-4 draws of ``random_automorphism(r, 12, Random(0))``, not relabelled),
a train track's floor-1e-6 report and a reduction's floor sweep; and
``outerspace minimize`` on a rank-4 map with floors 1e-1 ... 1e-6.  Each report
keeps its floor, lambda, lower bound, pinned edges, metric lengths and trace
length; floats are pinned by ``float.hex``.  The expected fields live in
``minimizer_pins.json``; after a deliberate change of results, regenerate
every pin file with ``PYTHONPATH=src python tests/regen.py``.
"""

import contextlib
import io
import json
from pathlib import Path
from random import Random

import pytest

from outerspace import cli, lipschitz_metric
from outerspace.marked_metric import random_automorphism

PINS = Path(__file__).with_name("minimizer_pins.json")
LADDER = ["minimize", "--map", "a->ab; b->bab; c->cad; d->dcad",
          "--floor", *(f"1e-{k}" for k in range(1, 7))]
SAMPLE = {3: 34, 4: 6}  # rank -> number of draws


def describe(rep) -> dict:
    ids = rep.metric.edge_ids
    return {
        "floor": rep.floor.hex(),
        "lam": rep.lam.hex(),
        "lower": rep.lower.hex(),
        "pinned": list(rep.pinned),
        "lengths": [float(rep.metric.length(e)).hex() for e in ids],
        "steps": len(rep.trace),
    }


def recorded(mp: pytest.MonkeyPatch, owner) -> list:
    """The reports of every minimization run through `owner`'s
    `min_displacement_on_simplex`, in order."""
    reports = []
    minimize = owner.min_displacement_on_simplex

    def record(*args, **kwargs):
        out = minimize(*args, **kwargs)
        reports.extend(out)
        return out

    mp.setattr(owner, "min_displacement_on_simplex", record)
    return reports


def classify_cases() -> dict:
    cases = {}
    for rank, count in SAMPLE.items():
        rng = Random(0)
        for i in range(count):
            phi = random_automorphism(rank, 12, rng)
            with pytest.MonkeyPatch.context() as mp:
                reports = recorded(mp, lipschitz_metric)
                kind = lipschitz_metric.classify(phi).kind
            cases[f"classify r{rank}#{i}"] = {
                "kind": kind, "reports": [describe(r) for r in reports]}
    return cases


def sweep_case() -> dict:
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        reports = recorded(mp, cli)
        assert cli.main(LADDER) == 0
    return {"sweep default": {"kind": "sweep", "reports": [describe(r) for r in reports]}}


def all_cases() -> dict:
    return {**classify_cases(), **sweep_case()}


def pin_text() -> str:
    return json.dumps(all_cases(), indent=1) + "\n"


def test_minimizer_pinned():
    pins = json.loads(PINS.read_text())
    got = all_cases()
    assert set(got) == set(pins)
    for name in sorted(pins):
        assert got[name] == pins[name], name


def test_pins_cover_both_kinds_of_minimization():
    pins = json.loads(PINS.read_text())
    counts = {}
    for case in pins.values():
        floors = tuple(float.fromhex(r["floor"]) for r in case["reports"])
        counts[case["kind"], floors] = counts.get((case["kind"], floors), 0) + 1
    assert counts[("hyperbolic", (1e-6,))] > 0
    assert counts[("parabolic_suspect", (1e-2, 1e-3, 1e-4))] > 0
    assert counts[("sweep", tuple(10.0**-k for k in range(1, 7)))] == 1
    assert all(floors == () for kind, floors in counts
               if kind not in ("hyperbolic", "parabolic_suspect", "sweep"))
