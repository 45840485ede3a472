"""Inputs, operations and output checks of the three benchmark workloads.

Every workload is a fixed list of inputs made from the run's seed and run to
completion, so two runs with one seed do identical work.  Per-input cost
spans four orders of magnitude (about 2 ms to 18 s), so independent draws per
seed would measure a different mix every time: 150 fresh rank-4 maps take
3.5 s on one seed and 48 s on the next, depending on how many of them stall
in ``pf_eigen``.  The maps are therefore one fixed base sample per rank (the
first draws of ``random_automorphism(rank, 12, Random(0))``), and the seed
relabels each map by its own random signed permutation of the generators and
shuffles the order.  Relabelling is a conjugation, so every seed sees the
same outer automorphism classes with the same word lengths; the fold loop
still breaks ties by edge id, so the work done differs a little per seed.

The program is always called through module attributes
(``train_track_algo.find_train_track`` and so on), so the tracer in
``tracing.py`` sees the calls it wraps.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from outerspace import graph_map, lipschitz_metric, marked_metric, train_track_algo, words
from outerspace.cli import point_to_json
from outerspace.graph_core import Graph
from outerspace.marked_metric import Automorphism, format_map_text

BASE_SEED = 0
STEPS = 12

# Base draws on which the fold loop calls pf_eigen on a periodic transition
# matrix: power iteration runs its 10^5 steps before the shifted retry, about
# 0.6 s per call.  Found by screen.py.  Stall-ness depends on the labelling,
# so these maps are never relabelled: fold-survey keeps 31 (1 stalling call)
# as it is and leaves out 33 (27 calls, about 18 s), which repeated over the
# passes of a run would exceed the run's time budget.  Relabelled draws are
# not screened.
PF_EIGEN_STALLS = {4: (31, 33)}
FOLD_STALLS_KEPT = (31,)

FOLD_COUNTS = {3: 60, 4: 60, 5: 60}
CLASSIFY_COUNTS = {3: 34, 4: 6}


@dataclass(frozen=True)
class Input:
    label: str  # where the input came from, e.g. "r4#128" or "k4#7>"
    payload: object


def base_maps(rank: int, count: int) -> List[Automorphism]:
    rng = random.Random(BASE_SEED)
    return [marked_metric.random_automorphism(rank, STEPS, rng) for _ in range(count)]


def relabel(phi: Automorphism, rng: random.Random) -> Automorphism:
    """Conjugate by a random signed permutation of the generators."""
    n = phi.rank
    perm = tuple((rng.choice((1, -1)) * k,) for k in rng.sample(range(1, n + 1), n))
    perm_inv = words.invert_images(perm)
    images = words.compose(perm, words.compose(phi.images, perm_inv))
    inverse = words.compose(perm, words.compose(phi.inverse_images, perm_inv))
    return Automorphism(images, inverse=inverse)


def map_power_is_inner(phi: Automorphism, k: int) -> bool:
    acc = phi.images
    for _ in range(k - 1):
        acc = words.compose(phi.images, acc)
    return words.is_conjugate_identity(acc)


def lambda_is_spectral_radius(cert) -> bool:
    rows = train_track_algo.transition_matrix(cert.graph_map).rows
    rho = float(np.max(np.abs(np.linalg.eigvals(np.array(rows, dtype=float)))))
    return abs(cert.lam - rho) <= 1e-9 * max(1.0, rho)


def _fmt(x: float) -> str:
    return f"{x:.10g}"


class Workload:
    """One workload: its inputs, the call it times, and the output check."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs: List[Input] = self.make_inputs(random.Random(seed))

    def make_inputs(self, rng: random.Random) -> List[Input]:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_one(self, payload):
        raise NotImplementedError

    def keep(self, result):
        """What the pass keeps of a result, taken outside the per-input time."""
        return result

    def outcome(self, kept) -> str:
        raise NotImplementedError

    def resolved(self, kept) -> bool:
        raise NotImplementedError

    def check(self, payload, kept) -> Optional[str]:
        """None if the output is correct, else what is wrong with it."""
        raise NotImplementedError

    def output_text(self, kept) -> str:
        raise NotImplementedError

    def input_text(self, phi) -> str:
        return format_map_text(phi.images)

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for inp in self.inputs:
            h.update(f"{inp.label}|{self.input_text(inp.payload)}\n".encode())
        return h.hexdigest()[:16]

    def output_digest(self, kept: Sequence) -> str:
        h = hashlib.sha256()
        for k in kept:
            h.update((self.output_text(k) if k is not None else "error").encode() + b"\n")
        return h.hexdigest()[:16]

    def tally(self, kept: Sequence) -> Dict[str, int]:
        return dict(sorted(Counter(
            self.outcome(k) if k is not None else "error" for k in kept
        ).items()))


class FoldSurvey(Workload):
    """find_train_track on relabelled base maps at ranks 3, 4 and 5."""

    name = "fold-survey"

    def make_inputs(self, rng):
        out = []
        for rank, count in FOLD_COUNTS.items():
            stalls = PF_EIGEN_STALLS.get(rank, ())
            for i, phi in enumerate(base_maps(rank, count)):
                if i in stalls:
                    if i in FOLD_STALLS_KEPT:
                        out.append(Input(f"r{rank}#{i}", phi))
                else:
                    out.append(Input(f"r{rank}#{i}", relabel(phi, rng)))
        rng.shuffle(out)
        return out

    def warm_up(self):
        train_track_algo.find_train_track(Automorphism.from_text("a->ab; b->bab"))

    def run_one(self, phi):
        return train_track_algo.find_train_track(phi)

    def outcome(self, cert):
        return cert.status

    def resolved(self, cert):
        return cert.status != "max_iters"

    def check(self, phi, cert):
        if cert.status == "train_track" and not lambda_is_spectral_radius(cert):
            return f"lambda {cert.lam} is not the spectral radius of the transition matrix"
        if cert.status == "finite_order" and not map_power_is_inner(phi, cert.order):
            return f"power {cert.order} is not inner"
        return None

    def output_text(self, cert):
        if cert.status == "train_track":
            detail = _fmt(cert.lam)
        elif cert.status == "finite_order":
            detail = str(cert.order)
        elif cert.status == "reducible":
            detail = str(sorted(cert.subset))
        else:
            detail = cert.reason
        return f"{cert.status} {detail} rounds={len(cert.trace)}"


class ClassifySurvey(Workload):
    """classify on relabelled base maps at ranks 3 and 4."""

    name = "classify-survey"

    def make_inputs(self, rng):
        out = []
        # The first 6 rank-4 draws hold none of PF_EIGEN_STALLS.
        for rank, count in CLASSIFY_COUNTS.items():
            out += [
                Input(f"r{rank}#{i}", relabel(phi, rng))
                for i, phi in enumerate(base_maps(rank, count))
            ]
        rng.shuffle(out)
        return out

    def warm_up(self):
        lipschitz_metric.classify(Automorphism.from_text("a->ab; b->bab"))

    def run_one(self, phi):
        return lipschitz_metric.classify(phi)

    def outcome(self, result):
        return result.kind

    def resolved(self, result):
        return result.kind != "inconclusive"

    def check(self, phi, result):
        if result.kind == "hyperbolic":
            if not lambda_is_spectral_radius(result.certificate):
                return f"lambda {result.lam} is not the spectral radius of the transition matrix"
            if abs(result.simplex.lam - result.lam) > 1e-6 * max(1.0, result.lam):
                return f"simplex minimum {result.simplex.lam} does not match lambda {result.lam}"
        if result.kind == "elliptic" and not map_power_is_inner(phi, result.order):
            return f"power {result.order} is not inner"
        return None

    def output_text(self, result):
        if result.kind == "hyperbolic":
            detail = _fmt(result.lam)
        elif result.kind == "elliptic":
            detail = str(result.order)
        elif result.kind == "parabolic_suspect":
            detail = " ".join(f"{_fmt(lam)}/{int(b)}" for _, lam, b in result.sweep)
        else:
            detail = result.certificate.status
        return f"{result.kind} {detail}"


def _graph(edges: Sequence[Tuple[int, int]]) -> Graph:
    vertices = sorted({v for e in edges for v in e})
    return Graph(vertices, {i: e for i, e in enumerate(edges, start=1)})


# name -> (graph, pairs).  Rank 3: the rose, a theta graph with a loop, K4,
# and a barbell (a loop and a theta graph joined by a separating edge); rank
# 4: K3,3, the prism and the rose.  The rose's 42,366 candidates make one of
# its distances cost about 0.65 s, 30 times a K3,3 one, so it gets 2 pairs;
# its 4 distances then sit above the tail percentile, which falls inside the
# K3,3 and prism distances instead of on the edge between the two groups.
GRAPH_FAMILY: Dict[str, Tuple[Graph, int]] = {
    "rose3": (marked_metric.rose_graph(3), 30),
    "theta_loop": (_graph([(0, 1), (0, 1), (0, 1), (0, 0)]), 30),
    "k4": (_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]), 30),
    "barbell": (_graph([(0, 0), (0, 1), (1, 2), (1, 2), (1, 2)]), 30),
    "k33": (_graph([(a, b) for a in (0, 1, 2) for b in (3, 4, 5)]), 20),
    "prism": (
        _graph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]),
        20,
    ),
    "rose4": (marked_metric.rose_graph(4), 2),
}


class DistanceTable(Workload):
    """Exact sigma(x, y) and sigma(y, x), y = act(x', relabelled base map)."""

    name = "distance-table"

    def make_inputs(self, rng):
        out = []
        most = max(pairs for _, pairs in GRAPH_FAMILY.values())
        bases = {r: base_maps(r, most) for r in (3, 4)}
        for name, (g, pairs) in GRAPH_FAMILY.items():
            rank = g.num_edges - len(g.vertices) + 1
            for k in range(pairs):
                x = marked_metric.graph_point(g, marked_metric.random_unit_metric(g.edge_ids, rng))
                x2 = marked_metric.graph_point(g, marked_metric.random_unit_metric(g.edge_ids, rng))
                y = marked_metric.act(x2, relabel(bases[rank][k], rng))
                out.append(Input(f"{name}#{k}>", (x, y)))
                out.append(Input(f"{name}#{k}<", (y, x)))
        rng.shuffle(out)
        return out

    def warm_up(self):
        # Fills the candidate cache for every graph of the family.
        for g, _ in GRAPH_FAMILY.values():
            metric = marked_metric.random_unit_metric(g.edge_ids, random.Random(0))
            marked_metric.candidates(marked_metric.graph_point(g, metric))

    def run_one(self, pair):
        x, y = pair
        return lipschitz_metric.sigma(x, y, graph_map.difference_of_markings(x, y))

    def keep(self, report):
        return report.sigma, report.witness.loop.edges, len(report.table)

    def outcome(self, kept):
        return f"witness of {len(kept[1])} edges"

    def resolved(self, kept):
        return True

    def check(self, pair, kept):
        s = kept[0]
        if not isinstance(s, Fraction):
            return f"sigma {s!r} is not an exact fraction"
        if s < 1:
            return f"sigma {s} < 1 between unit-volume points"
        return None

    def output_text(self, kept):
        s, witness, n = kept
        return f"{s} {list(witness)} {n}"

    def input_text(self, pair):
        x, y = pair
        return json.dumps([point_to_json(x), point_to_json(y)], sort_keys=True)


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    w.name: w for w in (FoldSurvey, ClassifySurvey, DistanceTable)
}


def tail_percentile(times: Sequence[float]) -> Tuple[float, float]:
    """Highest percentile of the ladder with at least ten samples beyond it."""
    s = sorted(times)
    n = len(s)
    for p in (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 80.0, 75.0, 50.0):
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= 10:
            return p, s[rank - 1]
    return 50.0, s[(n - 1) // 2]
