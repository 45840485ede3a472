"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import readme_check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

STALL_LABELS = {f"r4#{i}" for i in workloads.PF_EIGEN_STALLS[4]}


def small(name, seed=3, keep=6, skip=lambda label: False):
    """A workload cut down to its first `keep` inputs that `skip` lets through."""
    wl = workloads.WORKLOADS[name](seed)
    wl.inputs = [i for i in wl.inputs if not skip(i.label)][:keep]
    return wl


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_fingerprint(name):
    a, b = workloads.WORKLOADS[name](5), workloads.WORKLOADS[name](5)
    assert a.fingerprint() == b.fingerprint()
    assert [i.label for i in a.inputs] == [i.label for i in b.inputs]
    assert workloads.WORKLOADS[name](6).fingerprint() != a.fingerprint()


def test_fold_survey_keeps_the_stall_maps_unrelabelled():
    wl = workloads.WORKLOADS["fold-survey"](7)
    base = workloads.base_maps(4, 150)
    kept = {i.label: i.payload for i in wl.inputs if i.label in STALL_LABELS}
    assert sorted(kept) == sorted(f"r4#{i}" for i in workloads.FOLD_STALLS_KEPT)
    for label, phi in kept.items():
        assert phi.images == base[int(label.split("#")[1])].images


def test_relabel_is_an_automorphism_with_the_same_word_lengths():
    import random
    phi = workloads.base_maps(4, 1)[0]
    psi = workloads.relabel(phi, random.Random(1))
    assert sorted(map(len, psi.images)) == sorted(map(len, phi.images))
    assert workloads.words.is_conjugate_identity(
        workloads.words.compose(psi.inverse_images, psi.images))


@pytest.mark.parametrize("name, skip", [
    ("fold-survey", lambda label: label in STALL_LABELS),
    ("classify-survey", lambda label: label.startswith("r4")),
    ("distance-table", lambda label: label.startswith("rose4")),
])
def test_traced_pass_matches_untraced_pass(name, skip):
    wl = small(name, skip=skip)
    _, _, plain, plain_errors = run.run_pass(wl)
    counts = []
    for _ in range(2):
        # Each traced pass starts, like a fresh process, from an empty cache.
        workloads.marked_metric._candidate_words.cache_clear()
        wl.warm_up()
        tracer = tracing.Tracer()
        with tracer:
            _, _, traced, errors = run.run_pass(wl, tracer)
        assert not plain_errors and not errors
        assert wl.output_digest(traced) == wl.output_digest(plain)
        assert wl.tally(traced) == wl.tally(plain)
        m = tracing.layer_metrics(tracer)
        counts.append({k: v for k, v in m.items()
                       if not k.endswith(("_s", "_per_s"))})
    assert counts[0] == counts[1]
    if name == "fold-survey":
        assert counts[0]["train_track_algo.rounds"] == sum(len(c.trace) for c in plain)
        assert counts[0]["train_track_algo.find_train_track.calls"] == len(plain)
    if name == "classify-survey":
        assert counts[0]["lipschitz_metric.classify.calls"] == len(plain)
        assert counts[0]["lp.calls"] > 0 and counts[0]["lp.rows"] >= counts[0]["lp.calls"]
    if name == "distance-table":
        assert counts[0]["lipschitz_metric.sigma.candidates"] == sum(k[2] for k in plain)
        assert counts[0]["train_track_algo.find_train_track.calls"] == 0


def _bindings():
    return {
        (name, attr): id(value)
        for name, mod in sys.modules.items()
        if name == "outerspace" or name.startswith("outerspace.")
        for attr, value in vars(mod).items()
    }


def test_every_wrapped_attribute_is_restored():
    from outerspace import lipschitz_metric, train_track_algo
    before = _bindings()
    original = train_track_algo.find_train_track
    tracer = tracing.Tracer()
    with tracer:
        # The name lipschitz_metric imported is wrapped as well as the home one.
        assert lipschitz_metric.find_train_track is not original
        assert train_track_algo.find_train_track is lipschitz_metric.find_train_track
        changed = {k for k, v in _bindings().items() if before.get(k) != v}
        assert len(changed) > len(tracing.LAYERS)
    assert _bindings() == before
    assert train_track_algo.find_train_track is original


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer:
        run.run_pass(small("fold-survey", keep=3, skip=lambda label: label in STALL_LABELS), tracer)
    m = tracing.layer_metrics(tracer)
    name = "train_track_algo.find_train_track"
    assert 0 < m[f"{name}.self_s"] < m[f"{name}.busy_s"]


def test_readme_examples_pass(tmp_path):
    assert readme_check.run_readme_check(str(tmp_path)) == []


def test_tail_percentile_leaves_ten_samples_beyond():
    times = list(range(1, 101))
    p, value = workloads.tail_percentile(times)
    assert p == 90.0 and value == 90
    assert sum(t > value for t in times) >= 10


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fold-survey", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())
