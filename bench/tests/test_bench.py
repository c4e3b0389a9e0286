"""Tests of the benchmark itself: seeded generation, span arithmetic, failure counting.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


def _generate(name, seed, workdir):
    """(strata, repr of inputs, descriptor files) of one pass."""
    prog = workloads.load_program()
    files = None
    if name == "cli":
        wl = workloads.cli_workload(prog, seed, run.SRC, workdir)
        files = {p.name: p.read_text() for p in workdir.iterdir()}
    else:
        wl = run.make_workload(name, seed, prog)
    return [op.stratum for op in wl.ops], repr([op.spec for op in wl.ops]), files


def test_generation_is_deterministic_per_seed(tmp_path):
    for name in workloads.WORKLOADS:
        first = _generate(name, 7, tmp_path)
        assert _generate(name, 7, tmp_path) == first
        other = _generate(name, 8, tmp_path)
        assert other[1] != first[1]
        if name != "build":  # build strata names carry the drawn rank
            assert Counter(other[0]) == Counter(first[0])


def test_build_strata_keep_their_counts_across_seeds():
    prog = workloads.load_program()
    for seed in (1, 2):
        got = Counter()
        for op in workloads.build_workload(prog, seed).ops:
            _, rank, _, _, kind = op.spec
            got[next(i for i, (ranks, k, _) in enumerate(workloads.BUILD_STRATA)
                     if k == kind and rank in ranks)] += 1
        assert got == {i: count for i, (_, _, count) in enumerate(workloads.BUILD_STRATA)}


def test_sum_expression_has_the_requested_rank():
    prog = workloads.load_program()
    rng = workloads.random.Random(3)
    for rank in (0, 1, 2, 7, 40):
        for balanced in (False, True):
            expr = workloads.sum_expression(rng, rank, balanced)
            assert prog.serialize.parse_sum_expression(expr).rank == rank


def _span(sid, name, layer, parent, start, end, probe=False, op=1):
    return Span(sid, op, name, layer, parent, start, end, probe)


def test_self_times_subtract_children_and_move_probe_time():
    trace = [
        _span(1, "op", "bench", None, 0.0, 10.0),
        _span(2, "a", "x", 1, 1.0, 4.0),
        _span(3, "b", "y", 1, 5.0, 9.0),
        _span(4, "p", "z", 3, 11.0, 13.0, probe=True),  # runs after the op
        _span(5, "q", "w", 4, 13.0, 13.5, probe=True),
    ]
    got = spans.self_times(trace)
    assert got == {"bench": 3.0, "x": 3.0, "y": 2.0, "z": 1.5, "w": 0.5}
    assert sum(got.values()) == 10.0  # probes move time, they add none
    assert spans.coverage(trace) == (7.0, 10.0)


def test_probes_longer_than_their_parent_are_scaled_to_fit():
    trace = [
        _span(1, "op", "bench", None, 0.0, 10.0),
        _span(2, "t", "x", 1, 0.0, 8.0),
        _span(3, "p", "y", 2, 11.0, 17.0, probe=True),  # 6 + 4 = 10 > 8
        _span(4, "q", "z", 2, 17.0, 21.0, probe=True),
        _span(5, "r", "w", 4, 21.0, 23.0, probe=True),  # scaled with q
    ]
    got = spans.self_times(trace)
    assert got == pytest.approx({"bench": 2.0, "x": 0.0, "y": 4.8, "z": 1.6, "w": 1.6})
    assert sum(got.values()) == pytest.approx(10.0)


def test_overlapping_children_are_covered_once():
    trace = [
        _span(1, "op", "bench", None, 0.0, 10.0),
        _span(2, "a", "x", 1, 1.0, 4.0),
        _span(3, "b", "y", 1, 3.0, 6.0),
        _span(4, "c", "y", 1, 9.0, 12.0),  # only the part inside the op counts
    ]
    assert spans.self_times(trace)["bench"] == 10.0 - 6.0
    assert spans.coverage(trace) == (6.0, 10.0)


def test_tracer_records_calls_and_probes_outside_the_op():
    tr = spans.Tracer()

    def op(t):
        value = t.call("m.f", "m", lambda v: v + 1, 1)
        t.probe(t.last, "n.g", "n", lambda: None)
        return value

    out, wall = tr.run_op(op)
    assert out == 2
    root, call, probe = sorted(tr.spans, key=lambda s: s.start)
    assert (root.name, call.parent, probe.parent) == ("op", root.sid, call.sid)
    assert probe.probe and probe.start >= root.end and wall == root.duration
    assert spans.durations(tr.spans, "m.f") == [call.duration]


def _fake_workload(outputs):
    """Op i returns outputs[i](pass number); the check accepts outputs starting 'good'."""
    passes = Counter()

    def make(i):
        def run_op(tr):
            passes[i] += 1
            return outputs[i](passes[i])
        return workloads.Op(f"fake{i}", run_op)

    return workloads.Workload(
        "fake",
        [make(i) for i in range(len(outputs))],
        lambda i, out: out.startswith("good"),
        workloads.sha256,
        lambda outs: {"n": len(outs)},
    )


def _raise(_):
    raise ValueError("broken")


def test_failures_are_counted_against_ops_attempted():
    wl = _fake_workload([
        lambda n: "good",  # passes every time
        lambda n: "bad",  # fails its check on every pass
        _raise,  # raises on every pass
        lambda n: f"good{n}",  # passes the check once, then changes
    ])
    m = run.measure(wl, 0, passes=3)
    assert m.attempted == 12
    assert m.failed == 3 + 3 + 2
    assert m.passes == 3 and len(m.latencies) == 12
    assert m.counters == [None, None, None]  # a pass with a raised op has no counters
    assert any("raised" in e for e in m.errors) and any("wrong" in e for e in m.errors)


def test_a_clean_run_reports_no_failures_and_equal_counters():
    wl = _fake_workload([lambda n: "good", lambda n: "good too"])
    m = run.measure(wl, 0, passes=2)
    assert (m.attempted, m.failed, m.errors) == (4, 0, [])
    assert m.counters == [{"n": 2}, {"n": 2}]


def test_counters_repeat_across_set_ups():
    """Two set-ups of one seed, each measured for one pass, give equal counters."""
    got = []
    for _ in range(2):
        wl = run.make_workload("search", 4, workloads.load_program())
        m = run.measure(wl, 0, passes=1)
        assert m.failed == 0, m.errors
        got.append(m.counters[0])
    assert got[0] == got[1]
    assert set(got[0]) == {"equiv.search.raw_space", "equiv.search.hit_ratio"}


def test_each_pass_records_the_median_reference_time():
    wl = _fake_workload([lambda n: "good", lambda n: "good", lambda n: "good too"])
    loop = iter([0.3, 0.2, 0.1, 0.5, 0.4, 0.6])
    m = run.measure(wl, 0, passes=2, loop=lambda: next(loop))
    assert m.loop_s == [0.2, 0.5]


def test_latencies_are_scaled_per_pass_before_the_median_is_taken():
    ref = reference.REFERENCE_S
    # two ops, three passes; the second pass ran on a machine twice as slow
    latencies = [1.0, 4.0, 2.4, 6.0, 1.4, 5.0]
    got = run.scaled_latencies(latencies, [ref, 2 * ref, ref], 2)
    assert got == pytest.approx([1.2, 4.0])


def test_reference_loop_returns_its_time():
    assert 0 < reference.run_once() < 10


def test_percentile_interpolates():
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.9) == 4.6
    assert run.percentile([7.0], 0.9) == 7.0


def test_cli_check_rejects_arguments_that_argparse_refuses(tmp_path):
    """argparse exits with 2, the code of an inconclusive compare; that is no pass."""
    wl = workloads.cli_workload(workloads.load_program(), 1, run.SRC, tmp_path)
    bad = ["invariants", "--base", "S2xS2", "--c1", "-1,2"]
    wl.ops[0].spec = bad
    out = workloads.run_python(["-m", "conitop.cli", *bad], workloads.python_env(run.SRC))
    assert out[0] == 2
    assert not wl.check(0, out)
