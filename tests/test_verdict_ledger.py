"""The verdict ledger: every input's fold-loop status and classify kind,
one input per line of ``verdict_ledger.json``, so a diff shows one line per
moved verdict.

The inputs are the 900 draws, 150 each of ``random_automorphism(r, 12,
Random(7))`` for r = 3-6 and of ``random_automorphism(r, 12, Random(1))``
for r = 3, 4 (among them the five draws whose fold loop repeats a state and
the train track r3#27@1), then the named maps of ``NAMED``, then
``long_conjugate(30)``, a finite order whose images total 1,069 letters.  A
draw's label is ``r{rank}#{index}@{seed}``.  Each line holds the label, the
map text, the certificate's status and number of trace lines, its value
(lambda or rho to 10 digits, the order of a finite_order, the reason of a
max_iters), a reduction's subset and the classify kind.
``classify(phi).certificate`` is the ``find_train_track`` certificate, so
each input runs once.

After a deliberate change of verdicts, regenerate every pin file with
``PYTHONPATH=src python tests/regen.py``.
"""

import json
import random
from pathlib import Path

from helpers import R4_36, R4_39, TRANSVECTED_105, long_conjugate
from outerspace.lipschitz_metric import classify
from outerspace.marked_metric import Automorphism, format_map_text, random_automorphism

PINS = Path(__file__).with_name("verdict_ledger.json")
DRAWS = ((3, 7), (4, 7), (5, 7), (6, 7), (3, 1), (4, 1))  # (rank, seed), 150 draws each
# label -> map text.  r4#36 turns on an exact tie of two slide trials; r3#1@0
# (draw 1 of random_automorphism(3, 12, Random(0))) is reducible, and its
# fold-survey relabellings at seeds 0 and 1 are a train track and reducible.
NAMED = {
    "fold-survey r4#36@0": R4_36,
    "r3#1@0": "a->ABCAA; b->aac; c->ABCAAA",
    "fold-survey r3#1@0": "a->bbbAcb; b->BCaBB; c->bbA",
    "fold-survey r3#1@1": "a->BcABBB; b->BcABB; c->ABB",
    "fold-survey r4#39@3": R4_39,
    "TRANSVECTED_105": TRANSVECTED_105,
}
VALUE = {"train_track": "lam", "reducible": "rho", "finite_order": "order", "max_iters": "reason"}


def inputs():
    """(label, phi) of every ledger input, in ledger order."""
    for rank, seed in DRAWS:
        rng = random.Random(seed)
        for index in range(150):
            yield f"r{rank}#{index}@{seed}", random_automorphism(rank, 12, rng)
    for label, text in NAMED.items():
        yield label, Automorphism.from_text(text)
    yield "long_conjugate(30)", long_conjugate(30)


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


def pin_text() -> str:
    """The ledger file: a JSON list with one entry per line."""
    body = [json.dumps(entry(label, phi)) for label, phi in inputs()]
    return "\n".join(["[", *(line + "," for line in body[:-1]), body[-1], "]"]) + "\n"


def test_every_verdict_matches_the_ledger():
    assert pin_text().splitlines() == PINS.read_text().splitlines()
