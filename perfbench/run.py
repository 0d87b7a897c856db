"""mfroots benchmark.

    python3 perfbench/run.py --workload roots --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and benchmarks the library in ``src/``.
Set-up (import, seeded input generation, warm-up) is repeated and timed;
the timed phase then runs whole blocks of operations, one public call
each, in a closed loop with one client until ``--seconds`` have passed.
The results are checked independently afterwards.

Times are reported at a reference machine speed.  Between operations, at
most every ``PROBE_INTERVAL_S``, the run times a fixed piece of exact
rational arithmetic (``probe``), the kind of work the library does.  Every
time is scaled by ``PROBE_REF_S`` over the median probe time, which
cancels the drift in speed of a shared machine; the report prints the
scale and the raw figures too.

With ``--trace 0`` the last line is a JSON object with the end-to-end
metrics; with ``--trace 1`` the first ``trace_blocks`` blocks run once
untraced and once traced, and the JSON carries the per-layer metrics.
Every line before it is a human-readable report.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 3
PROBE_STEPS = 600
PROBE_REF_S = 0.008  # the probe's time at the reference speed, by definition
PROBE_INTERVAL_S = 0.5
LIB_MODULES = ("core", "structure", "maps", "scalar_roots", "builder", "io", "cli",
               "errors")
OWN_MODULES = ("gen", "checks", "workloads", "tracer")


def load_library():
    """Fresh import of the library and of the benchmark modules that bind
    to it, so that each set-up pays the import again."""
    for name in list(sys.modules):
        if name == "mfroots" or name.startswith("mfroots.") or name in OWN_MODULES:
            del sys.modules[name]
    import importlib
    package = importlib.import_module("mfroots")
    if Path(package.__file__).resolve().parent != SRC / "mfroots":
        raise ImportError(f"mfroots imported from {package.__file__}, not {SRC}")
    lib = types.SimpleNamespace(package=package)
    for name in LIB_MODULES:
        setattr(lib, name, importlib.import_module(f"mfroots.{name}"))
    return lib, importlib.import_module("workloads")


def set_up(name: str, seed: int):
    start = time.perf_counter()
    lib, workloads = load_library()
    wl = workloads.WORKLOADS[name](lib, seed, WORKDIR)
    wl.warm_up()
    return time.perf_counter() - start, lib, wl


class Run:
    """Latencies, outcomes and first results of the operations run."""

    def __init__(self, wl):
        self.wl = wl
        self.latency = []  # seconds, every attempted operation
        self.tags = []
        self.keys = []  # delivered operations
        self.failures = []  # (key, message)
        self.results = {}  # key -> first delivered result
        self.result_tags = {}  # key -> tag

    @property
    def attempted(self) -> int:
        return len(self.latency)

    @property
    def busy(self) -> float:
        """Seconds spent inside operations."""
        return sum(self.latency)

    def op(self, op, tracer=None):
        if tracer is not None:
            tracer.begin_op(self.attempted)
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # the op loop must go on; every error is reported
            why = f"{type(exc).__name__}: {exc}"
        else:
            why = None
        self.latency.append(time.perf_counter() - t0)
        self.tags.append(op.tag)
        why = why or self.wl.failure(op.key, result)
        if why:
            self.failures.append((op.key, why))
            return
        self.keys.append(op.key)
        if op.key not in self.results:
            self.results[op.key] = result
            self.result_tags[op.key] = op.tag

    def wrong(self, bad) -> int:
        """Delivered operations whose result the check found wrong."""
        return sum(1 for key in self.keys if key in bad)

    def failed(self, bad) -> int:
        return len(self.failures) + self.wrong(bad)

    def blocks(self, blocks, tracer=None):
        for block in blocks:
            for op in block:
                self.op(op, tracer)


def probe() -> float:
    """Seconds taken by a fixed piece of exact rational arithmetic."""
    t0 = time.perf_counter()
    s, a, rate = Fraction(0), Fraction(1, 3), Fraction(99, 100)
    for i in range(1, PROBE_STEPS):
        s = s * rate + a / i
    return time.perf_counter() - t0


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: an average of all order
    statistics weighted by a Beta((n+1)q, (n+1)(1-q)) density.  Unlike a
    single order statistic it moves smoothly when the operations' costs
    form clusters, which keeps it steady from run to run."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    sub = 16  # midpoint rule on each interval ((i-1)/n, i/n)
    weights = []
    for i in range(n):
        w = 0.0
        for j in range(sub):
            x = (i + (j + 0.5) / sub) / n
            w += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(w)
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, xs)) / total


def end_to_end(run, setups, bad, scale):
    """End-to-end metrics, times scaled to the reference speed."""
    lat = [x * 1000 * scale for x in run.latency]
    inc = [x for x, t in zip(lat, run.tags) if t == "inc"]
    dec = [x for x, t in zip(lat, run.tags) if t == "dec"]
    delivered = run.attempted - run.failed(bad)
    return {
        "setup_s": (statistics.median(setups) * scale, "s"),
        "ops_per_s": (delivered / (run.busy * scale), "1/s"),
        "op_p50_ms": (quantile(lat, 0.5), "ms"),
        "op_tail_ms": (quantile(lat, run.wl.tail_pct / 100), "ms"),
        "inc_p50_ms": (quantile(inc, 0.5), "ms"),
        "dec_p50_ms": (quantile(dec, 0.5), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def report_failures(run, bad):
    seen = {}
    for _, message in run.failures:
        seen[message] = seen.get(message, 0) + 1
    for key, message in bad.items():
        seen[f"wrong result (op {key}): {message}"] = 1
    for message, count in seen.items():
        print(f"failure x{count}: {message[:300]}")


def untraced(args):
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, lib, wl = set_up(args.workload, args.seed)
        setups.append(elapsed)
    run = Run(wl)
    probes = []
    deadline = time.perf_counter() + args.seconds
    next_probe = b = 0
    while True:  # whole blocks, so every window holds the fixed mix
        for op in wl.blocks[b % len(wl.blocks)]:
            run.op(op)
            if time.perf_counter() >= next_probe:
                probes.append(probe())
                next_probe = time.perf_counter() + PROBE_INTERVAL_S
        b += 1
        if time.perf_counter() >= deadline:
            break
    bad = wl.check(run.results)
    repeats = len(run.keys) - len(run.results)
    scale = PROBE_REF_S / statistics.median(probes)
    metrics = end_to_end(run, setups, bad, scale)
    raw = end_to_end(run, setups, bad, 1.0)

    n = len(run.latency)
    beyond = n - math.ceil(wl.tail_pct / 100 * n)
    exact = {"inc": [0, 0], "dec": [0, 0]}  # tag -> [exact, returned]
    for key, res in run.results.items():
        verification = getattr(res, "verification", res)
        if hasattr(verification, "exact"):
            exact[run.result_tags[key]][0] += bool(verification.exact)
            exact[run.result_tags[key]][1] += 1
    n_exact = exact["inc"][0] + exact["dec"][0]
    returned = exact["inc"][1] + exact["dec"][1]
    print(f"workload {wl.name}  seed {args.seed}  {b} blocks  {run.attempted} ops "
          f"({repeats} repeats of earlier ops)")
    print(f"speed        probe median {statistics.median(probes) * 1000:.3f} ms over "
          f"{len(probes)} probes, reference {PROBE_REF_S * 1000:g} ms: times scaled by {scale:.4f}")
    print("raw          " + "  ".join(f"{k} {v:.4f}" for k, (v, _) in raw.items()
                                      if k != "peak_rss_mb"))
    print(f"setup_s      {metrics['setup_s'][0]:.4f} s    median of "
          + " ".join(f"{s * scale:.3f}" for s in setups))
    print(f"ops_per_s    {metrics['ops_per_s'][0]:.4f} 1/s  {n - run.failed(bad)} delivered in "
          f"{run.busy:.2f} s of calls")
    print(f"op_p50_ms    {metrics['op_p50_ms'][0]:.4f} ms")
    print(f"op_tail_ms   {metrics['op_tail_ms'][0]:.4f} ms   p{wl.tail_pct:g} of {n} samples, "
          f"{beyond} beyond it" + ("" if beyond >= 10 else "  (fewer than 10 beyond)"))
    print(f"inc_p50_ms   {metrics['inc_p50_ms'][0]:.4f} ms   {run.tags.count('inc')} samples")
    print(f"dec_p50_ms   {metrics['dec_p50_ms'][0]:.4f} ms   {run.tags.count('dec')} samples")
    print(f"failed_frac  {run.failed(bad) / run.attempted:.4f}      "
          f"{run.failed(bad)} of {run.attempted} attempted")
    print("exact_frac   " + (f"{n_exact / returned:.4f}      {n_exact} of {returned} verifications "
                             f"exact (inc {exact['inc'][0]} of {exact['inc'][1]}, "
                             f"dec {exact['dec'][0]} of {exact['dec'][1]})"
                             if returned else "n/a (no verification in this workload)"))
    print(f"peak_rss_mb  {metrics['peak_rss_mb'][0]:.2f} MB")
    print(f"check        {len(run.results)} distinct results checked, {len(bad)} wrong")
    report_failures(run, bad)
    return run, bad, metrics


def traced(args):
    _, lib, wl = set_up(args.workload, args.seed)
    import tracer as tracing
    blocks = wl.blocks[:wl.trace_blocks]
    before, after = Run(wl), Run(wl)
    before.blocks(blocks)
    tracer = tracing.Tracer(lib)
    tracer.install()
    try:
        run = Run(wl)
        run.blocks(blocks, tracer)
    finally:
        tracer.uninstall()
    after.blocks(blocks)  # untraced runs on both sides even out drift
    plain_s = (before.busy + after.busy) / 2
    bad = wl.check(run.results)
    metrics = tracer.metrics(run.busy, plain_s)
    print(f"workload {wl.name}  seed {args.seed}  traced {run.attempted} ops "
          f"in {len(blocks)} blocks; untraced {before.busy:.3f} s and "
          f"{after.busy:.3f} s, traced {run.busy:.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    print("top self time: " + ", ".join(f"{n} {c} calls {s:.3f} s"
                                         for n, c, s in tracer.span_summary()))
    print(f"check        {len(run.results)} distinct results checked, {len(bad)} wrong")
    report_failures(run, bad)
    return run, bad, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("roots", "orbit_eval", "analyze"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mfroots" / "__init__.py").is_file():
        print(f"error: no mfroots sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    try:
        run, bad, metrics = (traced if args.trace else untraced)(args)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    result = {
        "correct": not bad,
        "attempted": run.attempted,
        "failed": run.failed(bad),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
