#!/usr/bin/env python3
"""Benchmark of the outerspace library: fold loop, displacement LP, stretch distance.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fold-survey --seed 0 --seconds 20 --trace 0

Workloads are ``fold-survey``, ``classify-survey`` and ``distance-table``
(see perfbench/README.md).  Each run makes the workload's fixed input list
from ``--seed``, checks the README examples, and runs the list to completion
in this process and in WORKERS fresh ones, one after the other: one client
in a closed loop, one thread.  Each process sets up and runs one pass, so
every pass starts from the same state; an input's time is the median of its
times in the passes, which filters out the slow spells of a shared machine
and the speed differences between processes.  The list is never cut short
on a clock; ``--seconds`` is the run length the lists were sized for and is
only reported.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass in a fresh process and one traced pass in this one, and
prints the per-layer metrics and the tracing overhead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORKERS = 2
WORKLOAD_NAMES = ("fold-survey", "classify-survey", "distance-table")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", action="store_true",
                   help="set up, run one untraced pass and print its figures as JSON")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def load_program():
    """Import the program from the checkout's src/, timing the import."""
    if not (SRC / "outerspace" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no outerspace sources in {SRC}")
    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    import readme_check
    import tracing
    import workloads
    return workloads, tracing, readme_check, time.perf_counter() - t


def setup(workloads, name: str, seed: int):
    t = time.perf_counter()
    wl = workloads.WORKLOADS[name](seed)
    inputs_s = time.perf_counter() - t
    t = time.perf_counter()
    wl.warm_up()
    return wl, inputs_s, time.perf_counter() - t


def run_workers(args, count: int) -> list:
    """Figures of `count` fresh processes, one after the other, each one pass."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--worker"]
    reports = []
    for _ in range(count):
        out = subprocess.run(argv, capture_output=True, text=True, timeout=170)
        if out.returncode != 0:
            raise RuntimeError(f"worker failed: exit {out.returncode}: {out.stderr[-500:]}")
        reports.append(json.loads(out.stdout.splitlines()[-1]))
    return reports


def run_pass(wl, tracer=None):
    """One closed-loop pass over the inputs: per-input times, kept results, errors."""
    times, kept, errors = [], [], {}
    gc.collect()
    start = time.perf_counter()
    for i, inp in enumerate(wl.inputs):
        if tracer is not None:
            tracer.input_id = i
        t = time.perf_counter()
        try:
            result = wl.run_one(inp.payload)
        except Exception as exc:  # a failed input is counted, not fatal
            times.append(time.perf_counter() - t)
            kept.append(None)
            errors[i] = f"{inp.label}: {exc!r}"
            continue
        times.append(time.perf_counter() - t)
        kept.append(wl.keep(result))
    return time.perf_counter() - start, times, kept, errors


def check_outputs(wl, kept, errors) -> dict:
    """Input index -> what is wrong, for errors and failed output checks."""
    bad = dict(errors)
    for i, (inp, k) in enumerate(zip(wl.inputs, kept)):
        if k is not None:
            msg = wl.check(inp.payload, k)
            if msg is not None:
                bad[i] = f"{inp.label}: {msg}"
    return bad


def machine_facts() -> dict:
    import numpy
    import scipy
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unknown"


UNITS = (("_per_s", "1/s"), ("_ms", "ms"), ("_mb", "MB"), ("_s", "s"),
         ("_rate", "ratio"), ("calls_per_minimize", "ratio"))


def unit_of(name: str) -> str:
    return next((u for suffix, u in UNITS if name.endswith(suffix)), "count")


def main(argv=None) -> int:
    args = parse_args(argv)
    load_start = loadavg()
    workloads, tracing, readme_check, import_s = load_program()
    wl, inputs_s, warmup_s = setup(workloads, args.workload, args.seed)
    setup_s = time.perf_counter() - _T0  # from the first line of this file
    if args.worker:
        wall, times, kept, errors = run_pass(wl)
        bad = check_outputs(wl, kept, errors)
        print(json.dumps({"setup_s": setup_s, "wall": wall, "times": times,
                          "digest": wl.output_digest(kept), "bad": list(bad.values())}))
        return 0
    OUT_DIR.mkdir(exist_ok=True)
    n = len(wl.inputs)

    tracer = tracing.Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        readme_failures = readme_check.run_readme_check(str(OUT_DIR))

    reports = run_workers(args, 1 if args.trace else WORKERS)
    with tracer or contextlib.nullcontext():
        wall, times, kept, errors = run_pass(wl, tracer)
    if args.trace:
        untraced_wall = reports[0]["wall"]
        tracer.write(str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"))
    else:
        walls = [wall] + [r["wall"] for r in reports]
        wall = statistics.median(walls)
        times = [statistics.median(ts) for ts in zip(times, *(r["times"] for r in reports))]
        setup_samples = [setup_s] + [r["setup_s"] for r in reports]

    bad = check_outputs(wl, kept, errors)
    worker_bad = [b for r in reports for b in r["bad"]]
    tally = wl.tally(kept)
    digest = wl.output_digest(kept)
    repeatable = all(r["digest"] == digest for r in reports)
    correct = not readme_failures and not bad and not worker_bad and repeatable

    if args.trace:
        values = tracing.layer_metrics(tracer)
        values["setup.import_s"] = import_s
        values["setup.inputs_s"] = inputs_s
        values["setup.warmup_s"] = warmup_s
        values["trace.untraced_throughput_per_s"] = n / untraced_wall
        values["trace.traced_throughput_per_s"] = n / wall
        values["trace.throughput_delta_per_s"] = n / wall - n / untraced_wall
    else:
        tail_p, tail = workloads.tail_percentile(times)
        values = {
            "setup_s": statistics.median(setup_samples),
            "throughput_per_s": n / wall,
            "sample_p50_ms": statistics.median(times) * 1e3,
            "sample_tail_ms": tail * 1e3,
            "ok_rate": (n - len(bad)) / n,
            "resolved_rate": sum(1 for k in kept if k is not None and wl.resolved(k)) / n,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "nominal_seconds": args.seconds,
        "trace": args.trace,
        "inputs": n,
        "input_fingerprint": wl.fingerprint(),
        "outcomes": tally,
        "output_digest": digest,
        "readme_check_failures": readme_failures,
        "failed_inputs": [bad[i] for i in sorted(bad)] + worker_bad,
        "outputs_repeat_across_processes": repeatable,
        "waiting": "none: one client, closed loop, one thread, so nothing queues",
        "machine": machine_facts(),
        "loadavg_start": load_start,
        "loadavg_end": loadavg(),
    }
    if args.trace:
        detail["pass_wall_s"] = {"untraced": untraced_wall, "traced": wall}
        detail["per_layer_window"] = "README check (input id None) plus one traced pass"
        detail["spans_by_name"] = tracing.span_table(tracer)
    else:
        detail["pass_wall_s"] = walls
        detail["setup_s_samples"] = setup_samples
        detail["sample_tail"] = (f"p{tail_p:g} of {n} samples, each the median "
                                 f"of {len(walls)} passes")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} inputs={n} "
          f"fingerprint={detail['input_fingerprint']} outputs={digest}")
    print(f"outcomes: {json.dumps(tally)}")
    print(f"machine: {json.dumps(detail['machine'])} "
          f"loadavg {detail['loadavg_start']} -> {detail['loadavg_end']}")
    if not args.trace:
        print(f"sample_tail_ms is {detail['sample_tail']}; waiting time: {detail['waiting']}")
    width = max(len(k) for k in metrics)
    for k, m in metrics.items():
        print(f"  {k:<{width}}  {m['value']:>14.6g} {m['unit']}")
    for line in detail["failed_inputs"] + readme_failures:
        print(f"FAILED {line}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": n, "failed": len(bad),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
