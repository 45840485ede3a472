"""Command-line reports, pinned to the byte.

Each case runs ``cli.main`` and compares its exit code and the bytes it
writes to stdout with ``cli_pins.json``, as canonical JSON and with
``--text``.  The maps give every traintrack status and every classify kind:
a train track (hyperbolic), a finite-order map (elliptic), a reduction
(parabolic suspect) and a fold loop that repeats a state (max_iters,
inconclusive, exit 3); ``minimize`` runs one floor and a ladder of two.
A map that is no basis (exit 4) and a floor of 1/2 at rank 2 (exit 2) print
nothing.  The points are README's rose pair, lengths (1/4, 3/4) and
(1/2, 1/2), and a theta graph with a loop at equal lengths and its image
under a->ab; b->bc; c->cab.
CI replays every case through the installed console script with
``replay(["outerspace"])``, which writes the same point files.
After a deliberate change of reports, regenerate every pin file with
``PYTHONPATH=src python tests/regen.py``.
"""

import contextlib
import io
import json
import subprocess
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from outerspace.cli import main, point_to_json
from outerspace.graph_core import Graph
from outerspace.marked_metric import Automorphism, Metric, act, graph_point, rose_point

PINS = Path(__file__).with_name("cli_pins.json")
MAPS = ("a->ab; b->bab", "a->B; b->C; c->A", "a->a; b->ab", "a->ba; b->c; c->A")
THETA_LOOP = Graph([0, 1], {1: (0, 1), 2: (0, 1), 3: (0, 1), 4: (0, 0)})
THETA_X = graph_point(THETA_LOOP, Metric({e: Fraction(1, 4) for e in THETA_LOOP.edge_ids}))
POINTS = {
    "x": rose_point(2, lengths=(Fraction(1, 4), Fraction(3, 4))),
    "y": rose_point(2, lengths=(Fraction(1, 2), Fraction(1, 2))),
    "theta_x": THETA_X,
    "theta_y": act(THETA_X, Automorphism.from_text("a->ab; b->bc; c->cab")),
}
COMMANDS = (
    *(["traintrack", "--map", m] for m in MAPS),
    ["traintrack", "--map", "a->aa; b->b"],
    *(["classify", "--map", m] for m in MAPS),
    ["minimize", "--map", "a->ab; b->bab", "--floor", "1e-4"],
    ["minimize", "--map", "a->a; b->ab", "--floor", "1e-2", "1e-3"],
    ["minimize", "--map", "a->ab; b->bab", "--floor", "0.5"],
    ["distance", "--point", "{x}", "--point2", "{y}", "--both"],
    ["distance", "--point", "{theta_x}", "--point2", "{theta_y}", "--both"],
    ["candidates", "--point", "{x}"],
    ["candidates", "--point", "{y}"],
)
CASES = {" ".join(argv + fmt): argv + fmt for argv in COMMANDS for fmt in ([], ["--text"])}


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue()}


def point_files(directory: Path) -> dict:
    """Each point's name -> the point file written for it in directory."""
    points = {}
    for name, x in POINTS.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(point_to_json(x)))
        points[name] = str(path)
    return points


def case_argv(name: str, points: dict) -> list:
    return [arg.format(**points) for arg in CASES[name]]


def all_cases(run=run) -> dict:
    """run's result on each case's arguments, with the points written as
    point files to a scratch directory."""
    with tempfile.TemporaryDirectory() as tmp:
        points = point_files(Path(tmp))
        return {name: run(case_argv(name, points)) for name in CASES}


def pin_text() -> str:
    return json.dumps(all_cases(), indent=1, sort_keys=True) + "\n"


def replay(command) -> int:
    """Run every case as a process, the command followed by the case's
    arguments, and name each one whose exit code or stdout bytes differ
    from its pin; 1 if any does, else 0."""
    pins = json.loads(PINS.read_text())
    done = all_cases(lambda argv: subprocess.run([*command, *argv], capture_output=True))
    bad = [name for name, p in done.items()
           if (p.returncode, p.stdout) != (pins[name]["code"], pins[name]["stdout"].encode("utf-8"))]
    for name in bad:
        print(f"differs from its pin: {name} (exit {done[name].returncode})")
        print(done[name].stderr.decode("utf-8", "replace"), end="")
    print(f"{len(done) - len(bad)} of {len(done)} cases match their pins")
    return 1 if bad else 0


@pytest.fixture(scope="module")
def points(tmp_path_factory):
    return point_files(tmp_path_factory.mktemp("points"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_pinned(points, name):
    # Each id runs its own case, so a case that raises or stalls fails alone.
    pin = json.loads(PINS.read_text())[name]
    report = run(case_argv(name, points))
    assert report["code"] == pin["code"]
    assert report["stdout"].encode("utf-8") == pin["stdout"].encode("utf-8")


def test_pins_cover_every_outcome():
    pins = json.loads(PINS.read_text())
    assert set(pins) == set(CASES)
    seen = set()
    for name, pin in pins.items():
        if pin["stdout"] and "--text" not in name and name.split()[0] in ("traintrack", "classify"):
            report = json.loads(pin["stdout"])
            seen.add((report.get("status", report.get("kind")), pin["code"]))
    assert seen == {
        ("train_track", 0), ("finite_order", 0), ("reducible", 0), ("max_iters", 3),
        ("hyperbolic", 0), ("elliptic", 0), ("parabolic_suspect", 0), ("inconclusive", 3),
    }
    # Every exit code appears, and a refused input prints no report.
    assert {pin["code"] for pin in pins.values()} == {0, 2, 3, 4}
    assert all(bool(pin["stdout"]) == (pin["code"] in (0, 3)) for pin in pins.values())
    # minimize prints one report for one floor and a list of them for a ladder.
    assert json.loads(pins["minimize --map a->ab; b->bab --floor 1e-4"]["stdout"])["floor"] == 1e-4
    ladder = json.loads(pins["minimize --map a->a; b->ab --floor 1e-2 1e-3"]["stdout"])
    assert [rep["floor"] for rep in ladder] == [1e-2, 1e-3]
    # Off the rose, both stretches are exact, and neither is below 1.
    theta = json.loads(pins["distance --point {theta_x} --point2 {theta_y} --both"]["stdout"])
    for side in ("forward", "backward"):
        assert isinstance(theta[side]["sigma"], str) and Fraction(theta[side]["sigma"]) >= 1


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
        if not name.endswith(" --text") or not pin["stdout"]:
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
        "distance --point {theta_x} --point2 {theta_y} --both --text",
        "minimize --map a->a; b->ab --floor 1e-2 1e-3 --text",
    }
