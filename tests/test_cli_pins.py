"""Command-line reports, pinned to the byte.

Each case runs ``cli.main`` and compares its exit code and the bytes it
writes to stdout with ``cli_pins.json``, as canonical JSON and with
``--text``.  The maps give every traintrack status and every classify kind:
a train track (hyperbolic), a finite-order map (elliptic), a reduction
(parabolic suspect) and a fold loop that repeats a state (max_iters,
inconclusive, exit 3); ``minimize`` runs one floor and a ladder of two.
The points are README's rose pair, lengths (1/4, 3/4) and (1/2, 1/2).
After a deliberate change of reports, regenerate the pins with
``PYTHONPATH=src python tests/test_cli_pins.py``.
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from outerspace.cli import main, point_to_json
from outerspace.marked_metric import rose_point

PINS = Path(__file__).with_name("cli_pins.json")
MAPS = ("a->ab; b->bab", "a->B; b->C; c->A", "a->a; b->ab", "a->ba; b->c; c->A")
POINTS = {"x": (Fraction(1, 4), Fraction(3, 4)), "y": (Fraction(1, 2), Fraction(1, 2))}
COMMANDS = (
    *(["traintrack", "--map", m] for m in MAPS),
    *(["classify", "--map", m] for m in MAPS),
    ["minimize", "--map", "a->ab; b->bab", "--floor", "1e-4"],
    ["minimize", "--map", "a->a; b->ab", "--floor", "1e-2", "1e-3"],
    ["distance", "--point", "{x}", "--point2", "{y}", "--both"],
    ["candidates", "--point", "{x}"],
    ["candidates", "--point", "{y}"],
)
CASES = {" ".join(argv + fmt): argv + fmt for argv in COMMANDS for fmt in ([], ["--text"])}


def run(argv, points):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([arg.format(**points) for arg in argv])
    return {"code": code, "stdout": out.getvalue()}


def all_cases() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        points = {}
        for name, lengths in POINTS.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(point_to_json(rose_point(2, lengths=lengths))))
            points[name] = str(path)
        return {name: run(argv, points) for name, argv in CASES.items()}


@pytest.fixture(scope="module")
def reports():
    return all_cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_pinned(reports, name):
    pin = json.loads(PINS.read_text())[name]
    assert reports[name]["code"] == pin["code"]
    assert reports[name]["stdout"].encode("utf-8") == pin["stdout"].encode("utf-8")


def test_pins_cover_every_outcome():
    pins = json.loads(PINS.read_text())
    assert set(pins) == set(CASES)
    seen = set()
    for name, pin in pins.items():
        if "--text" not in name and name.split()[0] in ("traintrack", "classify"):
            report = json.loads(pin["stdout"])
            seen.add((report.get("status", report.get("kind")), pin["code"]))
    assert seen == {
        ("train_track", 0), ("finite_order", 0), ("reducible", 0), ("max_iters", 3),
        ("hyperbolic", 0), ("elliptic", 0), ("parabolic_suspect", 0), ("inconclusive", 3),
    }
    # minimize prints one report for one floor and a list of them for a ladder.
    assert json.loads(pins["minimize --map a->ab; b->bab --floor 1e-4"]["stdout"])["floor"] == 1e-4
    ladder = json.loads(pins["minimize --map a->a; b->ab --floor 1e-2 1e-3"]["stdout"])
    assert [rep["floor"] for rep in ladder] == [1e-2, 1e-3]


def object_lists(report, indent: str = ""):
    """(header line, item marker, length) of each list of objects in a JSON
    report, in the order --text writes them: the list's key line (None for a
    report that is a list), then one "- " line per object at the indent below
    it."""
    if isinstance(report, list):
        yield None, "- ", len(report)
        return
    for key, value in sorted(report.items()):
        if isinstance(value, dict):
            yield from object_lists(value, indent + "  ")
        elif isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
            yield f"{indent}{key}:", f"{indent}  - ", len(value)


def test_text_lists_mark_each_object():
    # A list of k objects reads back as k objects: each starts with "- " at
    # the list's indent, so objects with the same keys stay apart.
    pins = json.loads(PINS.read_text())
    with_lists = set()
    for name, pin in pins.items():
        if not name.endswith(" --text"):
            continue
        lines = pin["stdout"].splitlines()
        at = 0
        for header, marker, k in object_lists(json.loads(pins[name[: -len(" --text")]]["stdout"])):
            if header is None:
                at, depth = 0, -1
            else:
                at = lines.index(header, at) + 1
                depth = len(header) - len(header.lstrip())
            end = next(
                (i for i in range(at, len(lines)) if len(lines[i]) - len(lines[i].lstrip()) <= depth),
                len(lines),
            )
            assert sum(line.startswith(marker) for line in lines[at:end]) == k, (name, header)
            with_lists.add(name)
    assert with_lists == {
        "candidates --point {x} --text",
        "candidates --point {y} --text",
        "classify --map a->a; b->ab --text",
        "distance --point {x} --point2 {y} --both --text",
        "minimize --map a->a; b->ab --floor 1e-2 1e-3 --text",
    }


if __name__ == "__main__":
    PINS.write_text(json.dumps(all_cases(), indent=1, sort_keys=True) + "\n")
