"""Malformed command-line input: every command answers with an exit code.

Point files are mutated from the points of the pinned CLI reports (README's
rose pair and a theta graph with a loop); maps are drawn from the clause
grammar at ranks 2 and 3, as automorphisms that mostly reach the fold loop,
and some clauses are then dropped, repeated or garbled.  Each input runs
through ``cli.main``, which must return 0, 2, 3 or 4, raise nothing and
write no traceback.  A point file that a command accepts reads back through
``point_to_json`` unchanged.  The draws come from one fixed seed.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

from test_cli_pins import POINTS
from outerspace import cli
from outerspace.marked_metric import format_map_text, random_automorphism

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_CAP, cli.EXIT_INTEGRITY}
FIELDS = ("vertices", "edges", "basepoint", "lengths", "marking", "inverse_marking")
ODD_VALUES = ("x", "", 1.5, True, None, [], {}, -1, 0, [1, "a"], {"1": 2})
ODD_IDS = ("0", "-1", "99", "01", "+1", "1.0", " 1", "1e0", "0x1", "١", "")
ODD_LENGTHS = (float("nan"), float("inf"), float("-inf"), 10**400, "NaN", "Infinity",
               "-1/4", "1/0", "0", "1e400", "1/4 ")
ODD_WORDS = ("", "d", "Z", "e27", "aA", "a.b", "?", "a b", "E3")


def base_points() -> dict:
    """The points of the pinned CLI reports, as point files."""
    return {name: cli.point_to_json(x) for name, x in POINTS.items()}


def dumps_pairs(value, repeat=None) -> str:
    """JSON text of value, with the object `repeat` writing one key twice."""
    if isinstance(value, dict):
        pairs = list(value.items())
        if value is repeat and pairs:
            pairs.append(pairs[0])
        return "{" + ", ".join(f"{json.dumps(k)}: {dumps_pairs(v, repeat)}" for k, v in pairs) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(dumps_pairs(v, repeat) for v in value) + "]"
    return json.dumps(value)


def mutate_point(data: dict, rng: random.Random) -> str:
    """The text of a point file with one field dropped, repeated or
    retyped, or one id, length or word replaced by an odd one."""
    data = json.loads(json.dumps(data))
    kind = rng.choice(("drop", "repeat", "retype", "id", "length", "offset", "word", "loop"))
    if kind == "repeat":
        target = rng.choice([data] + [data[f] for f in ("lengths", "marking", "inverse_marking")])
        return dumps_pairs(data, repeat=target)
    if kind == "drop":
        del data[rng.choice(FIELDS)]
    elif kind == "retype":
        field = rng.choice(FIELDS)
        inner = data[field]
        if isinstance(inner, dict) and rng.random() < 0.5:
            inner[rng.choice(sorted(inner))] = rng.choice(ODD_VALUES)
        elif isinstance(inner, list) and rng.random() < 0.5:
            edge = rng.choice(data["edges"])
            edge[rng.choice(("id", "endpoints"))] = rng.choice(ODD_VALUES)
        else:
            data[field] = rng.choice(ODD_VALUES)
    elif kind == "id":
        field = rng.choice(("lengths", "inverse_marking", "edges", "vertices"))
        odd = rng.choice(ODD_IDS)
        if field in ("lengths", "inverse_marking"):
            key = rng.choice(sorted(data[field]))
            data[field][odd] = data[field].pop(key)
        elif field == "edges":
            rng.choice(data["edges"])["id"] = int(odd) if odd.strip().lstrip("+-").isdigit() else odd
        else:
            data["vertices"][0] = rng.choice((99, -1, 0, "0", 1.0))
    elif kind == "length":
        data["lengths"][rng.choice(sorted(data["lengths"]))] = rng.choice(ODD_LENGTHS)
    elif kind == "offset":
        # Volume 1 is kept, so only the per-edge checks can refuse it.
        a, b = rng.sample(sorted(data["lengths"]), 2)
        t = rng.choice((Fraction(10**400), Fraction(1, 4), Fraction(1, 10**300)))
        data["lengths"][a] = str(Fraction(data["lengths"][a]) + t)
        data["lengths"][b] = str(Fraction(data["lengths"][b]) - t)
    elif kind == "word":
        data["inverse_marking"][rng.choice(sorted(data["inverse_marking"]))] = rng.choice(ODD_WORDS)
    else:
        key = rng.choice(sorted(data["marking"]))
        data["marking"][key] = rng.choice(([], [99], [0], [1, -1], ["1"], data["marking"][key] * 2))
    return json.dumps(data)


def map_text(rng: random.Random) -> str:
    """Map text from the clause grammar: an automorphism of rank 2 or 3,
    with its clauses shuffled and spaced, and one time in three garbled."""
    rank = rng.choice((2, 3))
    phi = random_automorphism(rank, rng.randint(1, 8), rng)
    clauses = [c.strip() for c in format_map_text(phi.images).split(";")]
    rng.shuffle(clauses)
    if rng.random() < 1 / 3:
        k = rng.randrange(len(clauses))
        gen, image = clauses[k].split("->")
        clauses[k] = rng.choice((
            "", clauses[k - 1], f"{gen}->", f"{gen}-{image}", f"{gen.upper()}->{image}",
            f"{gen}->{image}d", f"{gen}->{image}.e27", f"{gen}->{image}{image}",
            f"{gen}->{image[::-1]}", f"{gen}->{image}?", f"e27->{image}",
        ))
    sep = rng.choice(("; ", ";", " ;  ", "\n"))
    return sep.join(clauses) + rng.choice(("", ";", " "))


def run(argv) -> tuple:
    """The exit code and stderr of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in EXIT_CODES, (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    assert out.getvalue() or err.getvalue(), argv  # a report or a message
    return code, err.getvalue()


def test_mutated_point_files(tmp_path):
    rng = random.Random(20260)
    bases = base_points()
    partner = {"x": "y", "y": "x", "theta_x": "theta_y", "theta_y": "theta_x"}
    for name, data in bases.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    codes = set()
    for i in range(120):
        name = rng.choice(sorted(bases))
        path = tmp_path / f"fuzz{i}.json"
        path.write_text(mutate_point(bases[name], rng))
        other = str(tmp_path / f"{partner[name]}.json")
        code, _ = run(["candidates", "--point", str(path)])
        codes.add(code)
        run(["distance", "--point", str(path), "--point2", other])
        run(["distance", "--point", other, "--point2", str(path), "--both"])
        if code == cli.EXIT_OK:
            with open(path) as fh:
                once = cli.point_to_json(cli.point_from_json(json.load(fh)))
            assert cli.point_to_json(cli.point_from_json(once)) == once, path.read_text()
    assert codes >= {cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_INTEGRITY}


def test_generated_maps():
    rng = random.Random(20261)
    codes = set()
    for _ in range(40):
        text = map_text(rng)
        code, _ = run(["traintrack", "--map", text, "--max-iters", "30"])
        codes.add(code)
        run(["classify", "--map", text])
        run(["minimize", "--map", text])
    assert codes >= {cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_INTEGRITY}


LONG = "1" * 5000  # past Python's limit of 4300 digits for int()


def test_long_integers_are_named(tmp_path):
    # Each of these printed Python's own wording ("Exceeds the limit (4300
    # digits) for integer string conversion ..."), from json.load or from
    # int() on an object key.
    text = json.dumps(base_points()["x"])
    path = tmp_path / "long.json"
    for old, new, message in [
        ('"basepoint": 0', f'"basepoint": {LONG}', "basepoint has 5000 digits"),
        ('"vertices": [0]', f'"vertices": [0, -{LONG}]', "vertex has 5000 digits"),
        ('"id": 1,', f'"id": {LONG},', "edge id has 5000 digits"),
        ('"endpoints": [0, 0]', f'"endpoints": [0, {LONG}]', "endpoint has 5000 digits"),
        ('"a": [1]', f'"a": [{LONG}]', "marking entry of 'a' has 5000 digits"),
        ('"1": "1/4"', f'"1": {LONG}', "lengths entry of '1' has 5000 digits"),
        ('"1": "1/4"', f'"{LONG}": "1/4"', "lengths key has 5000 digits"),
        ('"1": "a"', f'"{LONG}": "a"', "inverse_marking key has 5000 digits"),
        ('"a": [1]', f'"a": {LONG}', "marking loop of 'a' must be a list, got an integer of 5000"),
    ]:
        assert old in text
        path.write_text(text.replace(old, new, 1))
        code, err = run(["candidates", "--point", str(path)])
        assert code == cli.EXIT_PARSE and err.startswith(f"error: {message}"), (new[:20], err)
        assert len(err) < 100


def test_a_missing_vertex_is_an_input_error(tmp_path):
    # A vertex that the file names but does not list is an input error
    # (exit 2), as an edge endpoint and as the basepoint alike; the
    # basepoint exited 4.
    data = base_points()["theta_x"]
    path = tmp_path / "missing.json"
    for field, edit, message in [
        ("basepoint", lambda d: d.update(basepoint=7), "basepoint 7 is not a vertex"),
        ("endpoint", lambda d: d["edges"][0].update(endpoints=[0, 7]), "not among vertices"),
    ]:
        edited = json.loads(json.dumps(data))
        edit(edited)
        path.write_text(json.dumps(edited))
        for argv in (["candidates", "--point", str(path)],
                     ["distance", "--point", str(path), "--point2", str(path)]):
            code, err = run(argv)
            assert code == cli.EXIT_PARSE and message in err, (field, err)
