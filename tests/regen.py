"""Regenerate every pin file of the tier-1 suite after a deliberate change of
results: ``PYTHONPATH=src python tests/regen.py``.  It takes no options.

It rewrites ``verdict_ledger.json``, ``certificate_pins.json``,
``minimizer_pins.json`` and ``cli_pins.json`` from the library, and prints
one table of what moved: the ledger lines grouped by (old status -> new
status) with their moved fields, the cases added, removed or changed in each
pin file, and the ledger's tally by (status, kind).  On an unchanged tree it
writes every file byte for byte as it was.
"""

import json
from collections import Counter, defaultdict

import test_certificate_pins
import test_cli_pins
import test_minimizer_pins
import test_verdict_ledger

PIN_MODULES = (test_verdict_ledger, test_certificate_pins, test_minimizer_pins, test_cli_pins)
MOVED = ("value", "trace_lines", "subset", "kind", "map")  # the fields a ledger move names


def ledger_moves(old: list, new: list) -> list:
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
            groups[o["status"], e["status"]].append(f"    {label}  {', '.join(moved)}".rstrip())
    return [line for (a, b), lines in sorted(groups.items())
            for line in (f"  {a} -> {b}: {len(lines)}", *lines)]


def case_moves(old: dict, new: dict) -> list:
    """The case names added, removed and changed between two pin files."""
    moved = {"added": sorted(new.keys() - old.keys()),
             "removed": sorted(old.keys() - new.keys()),
             "changed": sorted(n for n in old.keys() & new.keys() if old[n] != new[n])}
    return [f"  {what}: {name}" for what, names in moved.items() for name in names]


def main() -> None:
    for module in PIN_MODULES:
        path = module.PINS
        old = json.loads(path.read_text()) if path.exists() else None
        text = module.pin_text()
        path.write_text(text)
        new = json.loads(text)
        if isinstance(new, list):
            lines, ledger = ledger_moves(old or [], new), new
        else:
            lines = case_moves(old or {}, new)
        print(f"{path.name}: {len(new)} cases", *(lines or ["  nothing moved"]), sep="\n")
    print("ledger tally by (status, kind):")
    for (status, kind), count in sorted(Counter((e["status"], e["kind"]) for e in ledger).items()):
        print(f"  {count:4d} {status}/{kind}")


if __name__ == "__main__":
    main()
