"""conitop benchmark: four seeded workloads, end-to-end metrics, a traced run.

Run from the repository root; the benchmark imports ``src/conitop`` from the
checkout it sits in and nothing else:

    python3 bench/run.py --workload build --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # every workload in turn
    python3 bench/run.py --workload cli --trace 1

One client, one thread, closed loop: each op starts when the previous one
returns.  A run repeats whole passes of the workload (see ``workloads.py``)
until ``--seconds`` of pass time have gone by, checks every output, and
prints the environment (Python version, nproc, platform), ops attempted and
failed, and its metrics, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of the chosen workload.  After
every op the run times a fixed reference loop (see ``reference.py``; for
``cli`` the loop runs in a child interpreter); each op time is scaled by the
loop's nominal time over its median time in the same pass, so that a spell in
which the shared machine runs slow does not read as a slower conitop.  Each op's latency is the median of its scaled
times over the passes of the run (see ``end_to_end``), and then:

* ``ops_per_s`` is the ops of a pass over the sum of their latencies;
* ``latency_p50_ms`` and ``latency_p90_ms`` are quantiles over the ops of a
  pass;
* ``setup_s`` is the median of fifteen set-ups, each a fresh import of
  conitop plus generating the workload's inputs, and each scaled by the time
  of the reference loop run right after it (the ``cli`` bytecode warm-up
  after set-up is not counted);
* ``peak_rss_mb`` is of this process after the timed passes, or for ``cli``
  of the largest child process, measured as the ops run once after set-up.

``--trace 1`` is the traced run.  It covers every workload whatever
``--workload`` says, because each layer is measured on the workload that
exercises it.  Each workload gets an equal share of ``--seconds`` (at least
one pass after a checking pass), and each op runs untraced and then traced,
back to back.  The run reports mean call times from spans (see
``spans.py``), deterministic counters, each layer's self time,
``trace.coverage_ratio`` (layer spans' share of op wall time) and
``trace.overhead_ratio`` (traced over untraced op wall time), and writes the
spans to ``.bench_work/trace.json``.  Counters must repeat exactly on every
pass, or the run is not correct.

No layer waits on another and nothing retries, so there are no wait or retry
metrics.  Search nodes and column tests need counters inside the program and
are not measured here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import reference
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BUILD_DIGESTS = BENCH_DIR / "build_digests.json"
SETUP_REPEATS = 15
# Workloads whose ops are child processes time the reference loop in a child.
REFERENCE_LOOPS = {"cli": (reference.run_in_child, reference.CHILD_REFERENCE_S)}

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer mean call times: (metric, workload whose spans it reads, span name, note).
LAYER_TIMES = (
    ("serialize.parse_sum_expression.ms", "build", "serialize.parse_sum_expression", None),
    ("lattice.signature.ms", "build", "lattice.signature", None),
    ("lattice.is_unimodular.ms", "build", "lattice.is_unimodular", None),
    ("sixfold.projectivize.ms", "build", "sixfold.projectivize", None),
    ("sixfold.blowup_point.ms", "build", "sixfold.blowup_point", None),
    ("transitions.conifold_transition.ms", "build", "transitions.conifold_transition", None),
    ("serialize.system_to_obj.ms", "build", "serialize.system_to_obj", None),
    ("serialize.json_canonical.ms", "build", "serialize.json_canonical", None),
    *(
        (f"equiv.fingerprint.r{r}.p{p}.ms", "certify", "equiv.fingerprint", f"r{r}.p{p}")
        for r, p in ((4, 2), (4, 3), (4, 5), (5, 2), (5, 3), (5, 5), (6, 2), (6, 3))
    ),
    ("equiv.has_even_w2_cubic.ms", "certify", "equiv.has_even_w2_cubic", None),
    ("equiv.certify_distinct.ms", "certify", "equiv.certify_distinct", None),
    ("serialize.certificate_to_obj.ms", "certify", "serialize.certificate_to_obj", None),
    ("equiv.find_isomorphism.hit_ms", "search", "equiv.find_isomorphism", "hit"),
    ("equiv.find_isomorphism.miss_ms", "search", "equiv.find_isomorphism", "miss"),
    ("cli.interp_ms", "cli", "cli.interp", None),
    ("cli.import_ms", "cli", "cli.import", None),
    ("cli.invariants.ms", "cli", "cli.invariants", None),
    ("cli.transition.ms", "cli", "cli.transition", None),
    ("cli.compare.ms", "cli", "cli.compare", None),
    ("cli.verify_paper.ms", "cli", "cli.verify_paper", None),
)
SELF_TIME_LAYERS = workloads.LAYERS + (spans.ROOT_LAYER, "import", "interp")


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("ms") or ".self_ms." in metric:
        return "ms"
    if metric.endswith("_bytes") or metric.endswith("bytes_out"):
        return "bytes"
    if metric.endswith("ns_per_point"):
        return "ns"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


# -- set-up and measurement -------------------------------------------------------


def expected_build_digests(seed: int):
    if seed != workloads.DEFAULT_SEED:
        return None
    with open(BUILD_DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)["digests"]


def make_workload(name: str, seed: int, prog) -> workloads.Workload:
    if name == "build":
        return workloads.build_workload(prog, seed, expected_build_digests(seed))
    if name == "search":
        return workloads.search_workload(prog, seed)
    if name == "certify":
        return workloads.certify_workload(prog, seed)
    return workloads.cli_workload(prog, seed, SRC, WORK / f"cli-seed{seed}")


def set_up(name: str, seed: int, repeats: int):
    """Set up ``repeats`` times; returns (workload of the last, median seconds,
    peak resident KiB of a ``cli`` child or 0).

    The reference loop runs after each set-up, which is scaled by
    ``reference.REFERENCE_S`` over the loop's time.  For ``cli``, every op
    then runs once, which fills the bytecode and file caches before timing
    and measures each child's peak resident set.
    """
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        wl = make_workload(name, seed, workloads.load_program())
        dt = perf_counter() - t0
        times.append(dt * reference.REFERENCE_S / reference.run_once())
    peak_kb = 0
    if name == "cli":
        env = workloads.python_env(SRC)
        peak_kb = max(workloads.child_peak_rss_kb(["-m", "conitop.cli", *op.spec], env)
                      for op in wl.ops)
    return wl, statistics.median(times), peak_kb


@dataclass
class Measurement:
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    counters: list = field(default_factory=list)  # one dict (or None) per pass
    loop_s: list[float] = field(default_factory=list)  # median reference time per pass
    errors: list[str] = field(default_factory=list)
    # op index -> digest of its first output, or None if that failed its check
    reference: dict = field(default_factory=dict)


def measure(wl: workloads.Workload, seconds: float, tracer=None, passes: int | None = None,
            into: Measurement | None = None, loop=None) -> Measurement:
    """Run whole passes until ``seconds`` of pass time (or ``passes`` passes).

    Op i's output is checked in full the first time it is seen; every later
    output of op i must have the same digest.  Passing ``into`` continues an
    earlier measurement, with its first outputs as the reference.  With
    ``loop`` (a callable returning seconds) it runs after every op and its
    median time in each pass goes to ``loop_s``.
    """
    tracer = tracer or spans.NullTracer()
    m = into or Measurement()
    ref = m.reference
    elapsed = 0.0
    done = 0
    while True:
        outs, loop_s = [], []
        pass_start = perf_counter()
        for op in wl.ops:
            t0 = perf_counter()
            try:
                out, dt = tracer.run_op(op.run)
            except Exception as exc:  # an op that raises counts as failed; the run goes on
                out, dt = exc, perf_counter() - t0
            m.latencies.append(dt)
            outs.append(out)
            if loop is not None:
                loop_s.append(loop())
        elapsed += perf_counter() - pass_start
        if loop is not None:
            m.loop_s.append(statistics.median(loop_s))
        for i, out in enumerate(outs):
            m.attempted += 1
            if isinstance(out, Exception):
                m.failed += 1
                m.errors.append(f"{wl.name} op {i} ({wl.ops[i].stratum}) raised {out!r}")
                ref.setdefault(i, None)
                continue
            digest = wl.digest(out)
            if i not in ref:
                ref[i] = digest if _check(wl, i, out, m) else None
            if ref[i] is None or ref[i] != digest:
                m.failed += 1
        m.counters.append(
            None if any(isinstance(o, Exception) for o in outs) else wl.counters(outs)
        )
        m.passes += 1
        done += 1
        if done == passes or (passes is None and elapsed >= seconds):
            break
    return m


def _check(wl, i, out, m: Measurement) -> bool:
    try:
        ok = wl.check(i, out)
    except Exception as exc:  # a check that raises is a failed check
        m.errors.append(f"{wl.name} op {i} ({wl.ops[i].stratum}) check raised {exc!r}")
        return False
    if not ok:
        m.errors.append(f"{wl.name} op {i} ({wl.ops[i].stratum}) output is wrong")
    return ok


def percentile(values: list[float], q: float) -> float:
    """The q-quantile with linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def scaled_latencies(latencies: list[float], loop_s: list[float], n: int,
                     nominal_s: float = reference.REFERENCE_S) -> list[float]:
    """Each of ``n`` ops' median time over the passes, every pass scaled by
    ``nominal_s`` over the reference loop's median time in it.

    ``latencies`` holds the passes one after another, ``n`` ops each.
    """
    scale = [nominal_s / s for s in loop_s]
    return [statistics.median(t * k for t, k in zip(latencies[i::n], scale)) for i in range(n)]


def end_to_end(name: str, seed: int, seconds: float):
    """Time whole passes; each op's latency is its median scaled time over the passes.

    On a shared machine, contention from other work comes in bursts of
    milliseconds and in spells of tens of seconds in which everything runs
    up to twice as slow.  The reference loop, run between the ops of each
    pass, sees the same bursts and spells; dividing by its median time in
    the pass takes them out, and the median over passes the rest.
    """
    wl, setup_s, child_peak_kb = set_up(name, seed, SETUP_REPEATS)
    loop, nominal_s = REFERENCE_LOOPS.get(name, (reference.run_once, reference.REFERENCE_S))
    m = measure(wl, seconds, loop=loop)
    n = len(wl.ops)
    per_op = scaled_latencies(m.latencies, m.loop_s, n, nominal_s)
    raw = [statistics.median(m.latencies[i::n]) for i in range(n)]
    metrics = {
        "ops_per_s": n / sum(per_op),
        "latency_p50_ms": percentile(per_op, 0.5) * 1000,
        "latency_p90_ms": percentile(per_op, 0.9) * 1000,
        "setup_s": setup_s,
        # of this process after the timed passes, or for cli of the largest child
        "peak_rss_mb": (child_peak_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024,
    }
    info = {"ops_per_pass": n, "passes": m.passes, "samples": len(m.latencies),
            "unscaled_ops_per_s": round(n / sum(raw), 3),
            "reference_loop_ms": round(1000 * statistics.median(m.loop_s), 3)}
    return metrics, m, info


# -- traced run -------------------------------------------------------------------


class PairedTracer(spans.Tracer):
    """Runs each op untraced and then traced, back to back.

    Both sides of the overhead ratio then see the same spell of the machine.
    The untraced output must have the same digest as the traced one.
    """

    def __init__(self, digest):
        super().__init__()
        self.digest = digest
        self.untraced = 0.0
        self.mismatches = 0

    def run_op(self, fn):
        plain, dt = spans.NullTracer().run_op(fn)
        self.untraced += dt
        out, traced_dt = super().run_op(fn)
        self.mismatches += self.digest(plain) != self.digest(out)
        return out, traced_dt


def trace_workload(name: str, seed: int, seconds: float):
    """Traced passes of one workload, each op paired with an untraced run.

    Passes repeat until ``seconds`` have gone by, at least once.  Returns the
    spans, the number of traced passes, the untraced op seconds, and the
    measurement of every checked pass.
    """
    wl, _, _ = set_up(name, seed, 1)
    # the first pass checks every output and fills lazy caches, so that
    # neither side of the comparison below pays for them
    m = measure(wl, 0, passes=1)
    tracer = PairedTracer(wl.digest)
    measure(wl, seconds, tracer=tracer, into=m)
    if tracer.mismatches:
        m.errors.append(f"{name}: {tracer.mismatches} untraced outputs differ from traced ones")
    if any(c is None or c != m.counters[0] for c in m.counters):
        m.errors.append(f"{name}: counters differ between passes: {m.counters}")
    return tracer.spans, m.passes - 1, tracer.untraced, m


def traced(seed: int, seconds: float):
    """The traced run over every workload; returns (metrics, measurement)."""
    metrics: dict[str, float] = {}
    total = Measurement()
    by_workload = {}
    self_ms: dict[str, float] = {}
    covered_sum = wall_sum = untraced_sum = 0.0
    for name in workloads.WORKLOADS:
        sp, rounds, untraced, m = trace_workload(name, seed, seconds / len(workloads.WORKLOADS))
        total.attempted += m.attempted
        total.failed += m.failed
        total.errors += m.errors
        if m.counters[0] is not None:
            metrics.update(m.counters[0])
        covered, wall = spans.coverage(sp)
        metrics[f"trace.{name}.coverage_ratio"] = covered / wall
        metrics[f"trace.{name}.overhead_ratio"] = wall / untraced
        covered_sum += covered
        wall_sum += wall
        untraced_sum += untraced
        for layer, secs in spans.self_times(sp).items():
            self_ms[layer] = self_ms.get(layer, 0.0) + 1000 * secs / rounds
        by_workload[name] = sp
    for metric, home, name, note in LAYER_TIMES:
        values = spans.durations(by_workload[home], name, note)
        if not values:
            total.errors.append(f"no {name} spans ({note}) in {home}")
        metrics[metric] = 1000 * sum(values) / max(len(values), 1)
    fp = [s for s in by_workload["certify"] if s.name == "equiv.fingerprint"]
    points = sum(int(p) ** int(r) for r, p in (s.note[1:].split(".p") for s in fp))
    metrics["equiv.fingerprint.ns_per_point"] = 1e9 * sum(s.duration for s in fp) / points
    metrics["trace.coverage_ratio"] = covered_sum / wall_sum
    metrics["trace.overhead_ratio"] = wall_sum / untraced_sum
    for layer in SELF_TIME_LAYERS:
        metrics[f"trace.self_ms.{layer}"] = self_ms.get(layer, 0.0)
    WORK.mkdir(parents=True, exist_ok=True)
    spans.dump([s for sp in by_workload.values() for s in sp], WORK / "trace.json")
    return metrics, total


# -- entry point ------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "conitop" / "__init__.py").is_file():
        print(f"bench: no conitop sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"seed {args.seed}, {args.seconds:g} s per run, one client, closed loop, workers=1")
    if args.trace:
        metrics, m = traced(args.seed, args.seconds)
        units = {k: unit_of(k) for k in metrics}
        print(f"traced run over {', '.join(workloads.WORKLOADS)}: "
              f"ops_attempted {m.attempted}, ops_failed {m.failed}")
    else:
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        metrics, units, m = {}, {}, Measurement()
        for name in names:
            wl_metrics, wm, info = end_to_end(name, args.seed, args.seconds)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in wl_metrics.items()})
            units.update({prefix + k: unit_of(k) for k in wl_metrics})
            m.attempted += wm.attempted
            m.failed += wm.failed
            m.errors += wm.errors
            print(f"{name}: ops_attempted {wm.attempted}, ops_failed {wm.failed}, "
                  + ", ".join(f"{k} {v}" for k, v in info.items()))
    for err in m.errors[:20]:
        print(f"error: {err}")
    for metric, value in metrics.items():
        print(f"  {metric:<42} {value:>16.6g} {units[metric]}")
    result = {
        "correct": m.failed == 0 and not m.errors,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
