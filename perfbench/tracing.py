"""Spans around the program's layers, recorded from outside the program.

The tracer replaces a function by a wrapper under every name a caller looks
it up by: each attribute of a loaded ``outerspace.*`` module bound to that
function object, because a module calls ``from .x import f`` functions
through its own global.  ``restore()`` puts every original back.  Spans stay
in memory as ``[name, start, end, parent, input_id, count]`` rows, where
``count`` is a per-call amount of work (LP rows, candidates, fold rounds).

graph_core and cli are left untraced: graph_core runs once per candidate and
path, so a wrapper would cost more than the work, and cli costs about 2 ms a
command.  Their time shows in their callers' self time.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from typing import Callable, Dict, List, Tuple

# span name -> (module, attribute, figures reported as metrics).  "lp" is
# scipy's linprog as lipschitz_metric looks it up.  A time is reported only
# where it is never 0: fold does not run on distance-table (whose README
# check folds nothing), and no input reaches finite_order_check, because
# the word-level pre-check decides every finite-order map first.  Their
# figures still appear in the run's detail output.
CALLS, BUSY, SELF = "calls", "busy_s", "self_s"
LAYERS: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "words.compose": ("outerspace.words", "compose", (CALLS, BUSY)),
    "words.is_conjugate_identity": ("outerspace.words", "is_conjugate_identity", (CALLS, BUSY)),
    "words.invert_images": ("outerspace.words", "invert_images", (CALLS, BUSY)),
    "train_track_algo.find_train_track": (
        "outerspace.train_track_algo", "find_train_track", (CALLS, BUSY, SELF)),
    "train_track_algo.normalize": ("outerspace.train_track_algo", "normalize", (BUSY,)),
    "train_track_algo.fold": ("outerspace.train_track_algo", "fold", (CALLS,)),
    "train_track_algo.closed_class": ("outerspace.train_track_algo", "closed_class", (BUSY,)),
    "train_track_algo.transition_matrix": (
        "outerspace.train_track_algo", "transition_matrix", (BUSY,)),
    "train_track_algo.finite_order_check": (
        "outerspace.train_track_algo", "finite_order_check", ()),
    "train_track_algo.pf_eigen": ("outerspace.train_track_algo", "pf_eigen", (CALLS, BUSY)),
    "graph_map.gates_iterated": ("outerspace.graph_map", "gates_iterated", (CALLS, BUSY)),
    "graph_map.difference_of_markings": (
        "outerspace.graph_map", "difference_of_markings", (CALLS, BUSY)),
    "lipschitz_metric.classify": ("outerspace.lipschitz_metric", "classify", (CALLS, BUSY, SELF)),
    "lipschitz_metric.min_displacement_on_simplex": (
        "outerspace.lipschitz_metric", "min_displacement_on_simplex", (CALLS, BUSY, SELF)),
    "lp": ("outerspace.lipschitz_metric", "linprog", (CALLS, BUSY)),
    "lipschitz_metric.sigma": ("outerspace.lipschitz_metric", "sigma", (CALLS, BUSY, SELF)),
    "marked_metric.candidates": ("outerspace.marked_metric", "candidates", (CALLS, BUSY)),
    "marked_metric.act": ("outerspace.marked_metric", "act", (CALLS, BUSY)),
}

# span name -> work done by one call, read from its arguments or result.
COUNTS: Dict[str, Callable] = {
    "lp": lambda args, kwargs, result: len(kwargs["b_ub"]),
    "lipschitz_metric.sigma": lambda args, kwargs, result: len(result.table),
    "train_track_algo.find_train_track": lambda args, kwargs, result: len(result.trace),
}

NAME, START, END, PARENT, INPUT, COUNT = range(6)


class Tracer:
    def __init__(self, layers: Dict[str, Tuple[str, str, Tuple[str, ...]]] = LAYERS):
        self.layers = layers
        self.spans: List[list] = []
        self.input_id: object = None
        self._open: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._cache_start = None
        self.cache_hits = 0
        self.cache_misses = 0

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, open_ = self.spans, self._open
        count = COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.input_id, 0]
            open_.append(len(spans))
            spans.append(row)
            row[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[END] = clock()
                open_.pop()
            if count is not None:
                row[COUNT] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "outerspace" or n.startswith("outerspace.")]
        for name, (mod_name, attr, _) in self.layers.items():
            home = sys.modules[mod_name]
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            # linprog belongs to scipy: only lipschitz_metric's name is patched.
            targets = [home] if name == "lp" else modules
            for mod in targets:
                if getattr(mod, attr, None) is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        self._cache_start = _candidate_cache()

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        if self._cache_start is not None:
            end = _candidate_cache()
            self.cache_hits += end.hits - self._cache_start.hits
            self.cache_misses += end.misses - self._cache_start.misses
            self._cache_start = None

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def write(self, path: str) -> None:
        """Spans as tab-separated rows, times in microseconds from the first."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt") as out:
            out.write("id\tname\tstart_us\tend_us\tparent\tinput\tcount\n")
            for i, s in enumerate(self.spans):
                out.write(f"{i}\t{s[NAME]}\t{(s[START] - t0) * 1e6:.1f}\t"
                          f"{(s[END] - t0) * 1e6:.1f}\t{s[PARENT]}\t{s[INPUT]}\t{s[COUNT]}\n")


def _candidate_cache():
    return sys.modules["outerspace.marked_metric"]._candidate_words.cache_info()


def span_table(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Calls, busy time and self time of every span name.

    Busy time adds the durations of a name's outermost spans; self time
    subtracts from each span the time covered by its direct children.
    """
    spans = tracer.spans
    calls = {name: 0 for name in tracer.layers}
    busy = {name: 0.0 for name in tracer.layers}
    own = {name: 0.0 for name in tracer.layers}
    work = {name: 0 for name in tracer.layers}
    for s in spans:
        dur = s[END] - s[START]
        calls[s[NAME]] += 1
        own[s[NAME]] += dur
        work[s[NAME]] += s[COUNT]
        if s[PARENT] >= 0:
            own[spans[s[PARENT]][NAME]] -= dur
        if not _nested_in_same(spans, s):
            busy[s[NAME]] += dur
    return {name: {CALLS: calls[name], BUSY: busy[name], SELF: own[name], "work": work[name]}
            for name in tracer.layers}


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The reported figures of span_table, and counts derived from the spans."""
    spans = tracer.spans
    table = span_table(tracer)
    out: Dict[str, float] = {}
    for name, (_, _, reported) in tracer.layers.items():
        for field in reported:
            out[f"{name}.{field}"] = table[name][field]
    out["lp.rows"] = table["lp"]["work"]
    out["lipschitz_metric.sigma.candidates"] = table["lipschitz_metric.sigma"]["work"]
    out["train_track_algo.rounds"] = table["train_track_algo.find_train_track"]["work"]
    maps = table["train_track_algo.find_train_track"][CALLS]
    out["train_track_algo.precheck_hit_rate"] = _precheck_hits(spans) / maps if maps else 0.0
    minimizations = table["lipschitz_metric.min_displacement_on_simplex"][CALLS]
    out["lp.calls_per_minimize"] = table["lp"][CALLS] / minimizations if minimizations else 0.0
    out["marked_metric.candidate_cache.hits"] = tracer.cache_hits
    out["marked_metric.candidate_cache.misses"] = tracer.cache_misses
    out["trace.spans"] = len(spans)
    return out


def _nested_in_same(spans: List[list], s: list) -> bool:
    p = s[PARENT]
    while p >= 0:
        if spans[p][NAME] == s[NAME]:
            return True
        p = spans[p][PARENT]
    return False


def _precheck_hits(spans: List[list]) -> int:
    """find_train_track calls decided before the fold loop's first normalize."""
    folded = set()
    for s in spans:
        if s[NAME] != "train_track_algo.normalize":
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != "train_track_algo.find_train_track":
            p = spans[p][PARENT]
        folded.add(p)
    return sum(
        1 for i, s in enumerate(spans)
        if s[NAME] == "train_track_algo.find_train_track" and i not in folded
    )
