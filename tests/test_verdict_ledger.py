"""The verdict ledger: every input's fold-loop status and classify kind,
one input per line of ``verdict_ledger.json``, so a diff shows one line per
moved verdict.

The inputs are the 900 draws, 150 each of ``random_automorphism(r, 12,
Random(7))`` for r = 3-6 and of ``random_automorphism(r, 12, Random(1))``
for r = 3, 4 (among them the five draws whose fold loop repeats a state and
the train track r3#27@1), and fold-survey's seed-0 input r4#36, whose fold
path turns on an exact tie of two slide trials.  A draw's label is
``r{rank}#{index}@{seed}``.  Each line holds the label, the map text, the
certificate's status and number of trace lines, its value (lambda or rho to
10 digits, the order of a finite_order, the reason of a max_iters), a
reduction's subset and the classify kind.  ``classify(phi).certificate`` is
the ``find_train_track`` certificate, so each input runs once.

After a deliberate change of verdicts, regenerate the ledger with
``PYTHONPATH=src python tests/test_verdict_ledger.py``; it prints the lines
that changed, grouped by (old status -> new status), with the value moves.
"""

import json
import random
from collections import defaultdict
from pathlib import Path

from outerspace.lipschitz_metric import classify
from outerspace.marked_metric import Automorphism, format_map_text, random_automorphism

LEDGER = Path(__file__).with_name("verdict_ledger.json")
DRAWS = ((3, 7), (4, 7), (5, 7), (6, 7), (3, 1), (4, 1))  # (rank, seed), 150 draws each
R4_36 = "a->caDBaD; b->aCbdACbdACa; c->caDBaDaD; d->CbdACbdACa"
VALUE = {"train_track": "lam", "reducible": "rho", "finite_order": "order", "max_iters": "reason"}
MOVED = ("value", "trace_lines", "subset", "kind", "map")  # the fields a move report names


def inputs():
    """(label, phi) of every ledger input, in ledger order."""
    for rank, seed in DRAWS:
        rng = random.Random(seed)
        for index in range(150):
            yield f"r{rank}#{index}@{seed}", random_automorphism(rank, 12, rng)
    yield "fold-survey r4#36@0", Automorphism.from_text(R4_36)


def entry(label: str, phi: Automorphism) -> dict:
    result = classify(phi)
    cert = result.certificate
    value = getattr(cert, VALUE[cert.status])
    return {
        "label": label,
        "map": format_map_text(phi.images),
        "status": cert.status,
        "trace_lines": len(cert.trace),
        "value": f"{value:.10g}" if isinstance(value, float) else value,
        "subset": sorted(cert.subset) if cert.status == "reducible" else None,
        "kind": result.kind,
    }


def ledger_lines() -> list:
    """The ledger file's lines: a JSON list with one entry per line."""
    body = [json.dumps(entry(label, phi)) for label, phi in inputs()]
    return ["[", *(line + "," for line in body[:-1]), body[-1], "]"]


def test_every_verdict_matches_the_ledger():
    assert ledger_lines() == LEDGER.read_text().splitlines()


def moves(old: list, new: list) -> str:
    """The labels whose entries differ between old and new, grouped by (old
    status -> new status), each with its moved fields, the value first; a
    label missing on one side has status "absent"."""
    before, after = ({e["label"]: e for e in side} for side in (old, new))
    absent = {"status": "absent"}
    groups = defaultdict(list)
    for label in [*after, *(x for x in before if x not in after)]:
        o, e = before.get(label, absent), after.get(label, absent)
        if o != e:
            moved = [f"{k} {o.get(k)} -> {e.get(k)}" for k in MOVED if o.get(k) != e.get(k)]
            groups[o["status"], e["status"]].append(f"  {label}  " + ", ".join(moved))
    return "\n".join(f"{a} -> {b}: {len(lines)}\n" + "\n".join(lines)
                     for (a, b), lines in sorted(groups.items())) or "no line changed"


if __name__ == "__main__":
    old = json.loads(LEDGER.read_text()) if LEDGER.exists() else []
    lines = ledger_lines()
    LEDGER.write_text("\n".join(lines) + "\n")
    print(moves(old, json.loads("\n".join(lines))))
