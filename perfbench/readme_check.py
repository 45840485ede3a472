"""The README examples, run once in-process through ``outerspace.cli.main``.

Untimed.  Each case runs one documented command and compares its JSON report
with the output the README documents.  Point files for ``distance`` are
written to a temporary directory under ``workdir`` and removed afterwards.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from outerspace import cli
from outerspace.marked_metric import rose_point

GOLDEN = 2.618033988749895  # (3 + sqrt 5) / 2


def _run(argv: List[str]) -> Tuple[int, Dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


def _close(x, y, tol=1e-11) -> bool:
    return abs(float(x) - y) <= tol


def _blocks(report: Dict, subset: List[str]) -> List[List[List[int]]]:
    order = report["edge_order"]
    inside = [i for i, e in enumerate(order) if e in subset]
    outside = [i for i, e in enumerate(order) if e not in subset]
    m = report["matrix"]
    return [[[m[i][j] for j in idx] for i in idx] for idx in (inside, outside)]


def _cases(workdir: str) -> List[Tuple[str, List[str], Callable[[Dict], bool]]]:
    x = json.dumps(cli.point_to_json(rose_point(2, lengths=(Fraction(1, 4), Fraction(3, 4)))))
    y = json.dumps(cli.point_to_json(rose_point(2, lengths=(Fraction(1, 2), Fraction(1, 2)))))
    with open(f"{workdir}/x.json", "w") as fh:
        fh.write(x)
    with open(f"{workdir}/y.json", "w") as fh:
        fh.write(y)
    return [
        ("traintrack a->ab; b->bab", ["traintrack", "--map", "a->ab; b->bab"],
         lambda r: r["status"] == "train_track" and _close(r["lambda"], GOLDEN)
         and _close(r["metric"]["a"], 0.38196601125) and _close(r["metric"]["b"], 0.61803398875)
         and r["gates"] == [["A", "B"], ["a"], ["b"]]),
        ("traintrack a->B; b->C; c->A", ["traintrack", "--map", "a->B; b->C; c->A"],
         lambda r: r["status"] == "finite_order" and r["order"] == 6),
        ("traintrack a->a; b->ab", ["traintrack", "--map", "a->a; b->ab"],
         lambda r: r["status"] == "reducible" and r["subgraph"] == ["a"]),
        ("traintrack a->ab; b->bab; c->cad; d->dcad",
         ["traintrack", "--map", "a->ab; b->bab; c->cad; d->dcad"],
         lambda r: r["status"] == "reducible" and r["subgraph"] == ["a", "b"]
         and _blocks(r, ["a", "b"]) == [[[1, 1], [1, 2]], [[1, 1], [1, 2]]]),
        ("distance rose (1/4,3/4) vs (1/2,1/2)",
         ["distance", "--point", f"{workdir}/x.json", "--point2", f"{workdir}/y.json", "--both"],
         lambda r: r["forward"]["sigma"] == "2" and r["backward"]["sigma"] == "3/2"),
        ("classify a->ab; b->bab", ["classify", "--map", "a->ab; b->bab"],
         lambda r: r["kind"] == "hyperbolic" and _close(r["lambda"], GOLDEN)),
    ]


def run_readme_check(workdir: str) -> List[str]:
    """Names of the README examples whose output differs from the README."""
    failures = []
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        for name, argv, ok in _cases(tmp):
            try:
                code, report = _run(argv)
                passed = code == 0 and ok(report)
            except (ValueError, KeyError, TypeError) as exc:
                failures.append(f"{name}: {exc!r}")
                continue
            if not passed:
                failures.append(name)
    return failures
