"""Mutation analysis of the tier-1 suite: which tests fail when the library
is wrong in one named way (DeMillo, Lipton and Sayward, "Hints on test data
selection", IEEE Computer 11, 1978).

Run ``PYTHONPATH=src python tests/mutants.py``; it takes no options.  Each
mutant recompiles one library function or method from its source with one
text substitution, and binds it, before the tests are collected, in every
``outerspace`` module that binds the original, so ``from`` imports see it.
The unmutated suite runs first and must pass; then each mutant runs tier-1
in a fresh pytest process, under an address-space limit set on that process
alone, a timeout per test and one per process.  A mutant is killed when a
test fails (a strict xfail that starts to pass fails, and so does a test
that runs out of time or memory) or when its process runs out of time or
dies.  The runner prints each mutant's failing tests and exits 1 if one
survives, or if a substitution's text is not once in its function's source:
that mutant must then be rewritten with the library.

One mutant costs about one tier-1 run, so the runner stays out of CI.
"""

from __future__ import annotations

import __future__
import importlib
import inspect
import json
import os
import pkgutil
import resource
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
TEST_TIMEOUT_S = 30  # five times the slowest tier-1 test
TIMEOUT_S = 1800
MEMORY_BYTES = 2 << 30
MARK = "mutants: failed "

# name -> (module, qualified name, source text, its replacement)
MUTANTS = {
    "slide along the other edge": (
        "train_track_algo", "_MapState.unsubdivide_pass", "min(trials)", "max(trials)"),
    "skip the repeat test": (
        "train_track_algo", "find_train_track", "if key == saved:", "if False:"),
    "skip the finite-order test at a reduction": (
        "train_track_algo", "find_train_track",
        'if move == "reduction" and (done', "if False and (done"),
    "descend one step less": (
        "train_track_algo", "_descend_to_one_step",
        "if deriv[a] == deriv[b]:", "if deriv[deriv[a]] == deriv[deriv[b]]:"),
    "drop Warshall's transitive step": (
        "train_track_algo", "TransitionMatrix.closures", "reach[j] |= reach[k]", "reach[j] |= 0"),
    "take the first proper closure": (
        "train_track_algo", "invariant_chain",
        "chain.append(next((s for s in proper if not is_forest(M.graph, s)), proper[0]))",
        "chain.append(proper[0])"),
    "count two-gate vertices in the potential": (
        "train_track_algo", "_gate_potential", "s.num_gates(v) - 2", "s.num_gates(v) - 1"),
    "leave the hair a fold makes": (
        "train_track_algo", "fold", "st._rebase_off_hair()", "pass"),
    "take one derivative iterate": (
        "graph_map", "gates_from_derivative", "k = len(directions)", "k = 1"),
    "pass every map's marking check": (
        "graph_map", "GraphMap.check_marking_compatibility", "if g is None:", "if False:"),
    "take the float lower without the mediant bound": (
        "lipschitz_metric", "min_displacement_on_simplex",
        "lower = max(lower, mediant_bound(res.y / scale))", "lower = max(lower, lam)"),
    "return the first candidate's ratio": (
        "lipschitz_metric", "sigma", "witness, top = table[best]", "witness, top = table[0]"),
    "cancel only an image's first letter": (
        "words", "apply_table", "while i < n and out and out[-1] == -img[i]:", "while False:"),
    "leave a cyclic image's ends": (
        "words", "cyclic_image", "return _strip_ends(apply_table(table, w))",
        "return apply_table(table, w)"),
    "drop barbells from the candidates": (
        "marked_metric", "_candidate_words", "elif not shared:", "elif False:"),
    "pass every point's marking check": (
        "marked_metric", "OuterSpacePoint.check_marking", "if g is None:", "if False:"),
    "read a loop in one orientation": (
        "graph_core", "canonical_loop",
        "for w in (edges, tuple(-d for d in reversed(edges))):", "for w in (edges,):"),
    "accept an open walk as closed": (
        "graph_core", "_reduced_walk", "if closed and prev is not None and end != start:",
        "if False:"),
    "accept a valence-2 vertex in a point file": (
        "cli", "point_from_json", "if any(graph.valence(v) == 2 for v in graph.vertices):",
        "if False:"),
    "exit 0 at the iteration cap": (
        "cli", "_traintrack_report", "return report, EXIT_CAP", "return report, EXIT_OK"),
}


def apply(name: str) -> None:
    """Bind the mutant's function wherever an outerspace module binds the
    original: a method on its class, a function in every module."""
    module, qualname, old, new = MUTANTS[name]
    mods = [importlib.import_module(f"outerspace.{m.name}")
            for m in pkgutil.iter_modules([str(SRC / "outerspace")])]
    home = importlib.import_module(f"outerspace.{module}")
    *owner_path, attr = qualname.split(".")
    owner = home
    for part in owner_path:
        owner = getattr(owner, part)
    original = inspect.getattr_static(owner, attr)
    source = textwrap.dedent(inspect.getsource(getattr(original, "func", original)))
    if source.count(old) != 1:
        raise SystemExit(f"mutant {name!r}: {old!r} is not once in {module}.{qualname}")
    code = compile(source.replace(old, new), home.__file__, "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    scope: dict = {}
    exec(code, home.__dict__, scope)
    mutant = scope[attr]
    if owner is not home:
        setattr(owner, attr, mutant)
        if hasattr(mutant, "__set_name__"):
            mutant.__set_name__(owner, attr)
        return
    for mod in mods:
        if getattr(mod, attr, None) is original:
            setattr(mod, attr, mutant)


def child(name: str) -> None:
    """Run tier-1 in this process, with the named mutant applied first when
    it is one, and print the ids of the tests that failed."""
    import pytest

    if name:
        apply(name)
    failed = {}  # test id -> None, in the order they failed

    def out_of_time(signum, frame):
        raise TimeoutError(f"test ran past {TEST_TIMEOUT_S} s")

    signal.signal(signal.SIGALRM, out_of_time)

    class Record:
        @pytest.hookimpl(hookwrapper=True)
        def pytest_runtest_protocol(self, item):
            signal.alarm(TEST_TIMEOUT_S)
            yield
            signal.alarm(0)

        def pytest_runtest_logreport(self, report):
            if report.failed:
                failed[report.nodeid] = None

        pytest_collectreport = pytest_runtest_logreport

    code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                        str(TESTS)], plugins=[Record()])
    if code not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        failed[f"(pytest stopped early: {code!r})"] = None  # the list above is partial
    print(MARK + json.dumps(list(failed)))


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def run(name: str) -> list:
    """The tests the named mutant fails ("" is the unmutated suite), or the
    one reason its process gave no list."""
    code = f"import sys; sys.path.insert(0, {str(TESTS)!r}); import mutants; mutants.child({name!r})"
    try:
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=TIMEOUT_S, preexec_fn=_limit_memory, cwd=TESTS.parent,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
    except subprocess.TimeoutExpired:
        return [f"(timeout after {TIMEOUT_S} s)"]
    for line in done.stdout.splitlines():
        if line.startswith(MARK):
            return json.loads(line[len(MARK):])
    if "MemoryError" in done.stderr:
        return ["(MemoryError)"]
    return [f"(exit {done.returncode}: {done.stderr.strip().splitlines()[-1:]})"]


def main() -> int:
    control = run("")
    if control:
        print("the unmutated suite fails:", *control, sep="\n  ")
        return 1
    survivors = []
    for name in MUTANTS:
        failed = run(name)
        print(f"{name}: {len(failed)} failed", *failed, sep="\n  ", flush=True)
        if not failed:
            survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    for name in survivors:
        print(f"survived: {name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
