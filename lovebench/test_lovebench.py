"""Tests of the benchmark itself: declared metrics are emitted with their
units, broken output is counted as a failure, the tracer wraps and unwraps
cleanly, and the zero-call pairings the per-layer metrics predict hold.

    PYTHONPATH=src python3 -m pytest -q lovebench
"""

import contextlib
import io
import json
import math
from types import SimpleNamespace

import pytest

import run
import spans
import workloads



@pytest.fixture(scope="module")
def lovelab():
    return run.load_program()


def _traced(lovelab, workload, argvs):
    """Runs argvs traced; returns (per-layer metrics, session, tracer)."""
    session = run.Session(lovelab, workload)
    tracer = spans.Tracer()
    with tracer:
        assert spans.wrapped()
        for i, argv in enumerate(argvs):
            tracer.command = i
            session.run(argv)
    assert spans.wrapped() == []
    metrics = run.layer_metrics(tracer.spans, len(argvs), run.declared("per_layer"), 0.5, 0.1)
    return metrics, session, tracer


def test_benchmark_json_names_the_workloads():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    assert sorted(w["name"] for w in benchmark["workloads"]) == sorted(workloads.WORKLOADS)
    assert benchmark["command"] == ["python3", "lovebench/run.py"]
    assert all(w.reference in run.REFERENCES for w in workloads.WORKLOADS.values())


def test_untraced_summary_emits_every_end_to_end_metric():
    timed = [(None, 0.1 + 0.01 * i, 0.2, None) for i in range(5)]
    metrics = run.summarize(timed, 0.3, 100.0, 9.0)
    assert set(metrics) == set(run.declared("end_to_end"))
    assert all(math.isfinite(v) and v > 0 for v in metrics.values())


class _Machine:
    """A session on a machine `slow` times slower than one where a verify
    command takes 0.3 s."""

    def __init__(self, slow):
        self.slow = slow
        self.workload = workloads.WORKLOADS["verify-all"]

    def run(self, argv):
        return 0.3 * self.slow, workloads.Outcome(True)


class _Reference(run.Reference):
    """The reference on that machine: 0.01 s at slowness 1."""

    def __init__(self, slow):
        self.slow = slow
        super().__init__()

    def time(self):
        return 0.01 * self.slow


def test_reference_speed_cancels_the_machine_speed():
    timed = [run.timed_passes(_Machine(s), _Reference(s), 1, 5.0) for s in (1.0, 2.0)]
    expected = 0.3 * run.Reference.SECONDS / 0.01
    for entries in timed:
        assert [e[1] for e in entries] == pytest.approx([expected] * len(entries))
    assert [e[2] for e in timed[1]] == pytest.approx([0.6] * len(timed[1]))
    reference = _Reference(1.0)
    reference.after(0.4)
    assert len(reference.times) == 1
    reference.after(run.Reference.EVERY_S)
    assert len(reference.times) == 2


def test_argv_is_seeded_and_stratified():
    fit = workloads.WORKLOADS["fit-weak"]
    first = next(fit.cycles(3))
    assert first == next(fit.cycles(3))
    assert first != next(fit.cycles(4))
    g1 = sorted(float(a[a.index("--gamma-min") + 1]) for a in first)
    lo, hi = fit.G1
    edges = [lo * (hi / lo) ** (j / len(g1)) for j in range(len(g1) + 1)]
    assert all(edges[j] <= g <= edges[j + 1] for j, g in enumerate(g1))
    assert sorted(int(a[a.index("--gamma-points") + 1]) for a in first) == [9, 10, 10, 11]
    nudged = fit.nudged(first[0], 3)
    for flag in fit.float_flags:
        value = float(first[0][first[0].index(flag) + 1])
        assert float(nudged[nudged.index(flag) + 1]) == value * (1 - 3e-9) != value
    assert fit.items(nudged) == fit.items(first[0])


def test_timed_inputs_depend_on_seed_and_seconds_only():
    for workload in workloads.WORKLOADS.values():
        inputs = workload.timed_inputs(5, 24)
        assert inputs == workload.timed_inputs(5, 24)
        assert len(inputs) % workload.cycle_length == 0
        assert inputs[:workload.cycle_length] == next(workload.cycles(5))
        assert workload.timed_inputs(5, 0.001) == next(workload.cycles(5))
    scan = workloads.WORKLOADS["solve-scan"]
    assert len(scan.timed_inputs(5, 24)) == 8 * round(24 / (scan.passes * scan.cycle_s))


def _fit_output(c2, verdict="takahashi"):
    return ("c2,fit_residual,dist_takahashi,dist_kaminaka_wadati,verdict\n"
            f"{c2!r},3.6e-07,2.2e-06,4.2e-02,{verdict}\n")


def _verify_output(values):
    lines = ["name,computed,target,abs_error,digits,method"]
    lines += [f"{name},{value!r},{value!r},0.0,17,m" for name, value in values.items()]
    return "\n".join(lines) + "\n"


def test_corrupted_outputs_fail_their_checks():
    fit = workloads.WORKLOADS["fit-weak"]
    argv = next(fit.cycles(1))[0]
    good = workloads.C2_TARGET + 2e-6
    assert fit.check(argv, 0, _fit_output(good)).ok
    assert not fit.check(argv, 0, _fit_output(float("nan"))).ok
    assert not fit.check(argv, 0, _fit_output(good, "kaminaka_wadati")).ok
    assert not fit.check(argv, 0, _fit_output(good + 1e-3)).ok
    assert not fit.check(argv, 1, _fit_output(good)).ok
    assert not fit.check(argv, 0, _fit_output(good)[10:]).ok

    verify = workloads.WORKLOADS["verify-all"]
    targets = dict(workloads.VERIFY_TARGETS)
    assert verify.check(verify.ARGV, 0, _verify_output(targets)).ok
    assert not verify.check(verify.ARGV, 0, _verify_output(
        {**targets, "gamma0": targets["gamma0"] * (1 + 1e-7)})).ok
    assert not verify.check(verify.ARGV, 0, _verify_output(
        {**targets, "residue_k2": float("nan")})).ok
    del targets["polylog_n4"]
    assert not verify.check(verify.ARGV, 0, _verify_output(targets)).ok


def test_corrupted_solve_rows_fail(lovelab):
    scan = workloads.WORKLOADS["solve-scan"]
    argv = scan.warmup()[0]
    session = run.Session(lovelab, scan)
    session.run(argv)
    assert session.failed == 0
    cells = session.outcomes[0].values["rows"][0]
    assert workloads.reference_digits(lovelab, cells) > 12
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert lovelab.cli.main(argv) == 0
    lines = out.getvalue().splitlines()
    assert scan.check(argv, 0, "\n".join(lines)).ok

    def corrupt(row, column, value):
        broken = list(lines)
        cells = broken[row].split(",")
        cells[scan.COLUMNS.index(column)] = value
        broken[row] = ",".join(cells)
        return "\n".join(broken)

    assert not scan.check(argv, 0, corrupt(3, "residual", "nan")).ok
    assert not scan.check(argv, 0, corrupt(3, "residual", "1e-3")).ok
    assert not scan.check(argv, 0, corrupt(5, "gamma", "inf")).ok
    assert not scan.check(argv, 0, corrupt(5, "energy", "")).ok
    assert not scan.check(argv, 0, corrupt(7, "error", "failed")).ok
    assert not scan.check(argv, 0, corrupt(2, "kappa", "0.3")).ok
    assert not scan.check(argv, 0, "\n".join(lines[:-1])).ok
    assert workloads.reference_digits(lovelab, {**cells, "energy": cells["energy"] * 1.001}) == 0.0


def test_failed_commands_are_counted():
    fit = workloads.WORKLOADS["fit-weak"]
    replies = iter([_fit_output(workloads.C2_TARGET), "garbage", SystemExit(2),
                    RuntimeError("boom")])

    def main(argv):
        reply = next(replies)
        if isinstance(reply, BaseException):
            raise reply
        print(reply, end="")
        return 0

    session = run.Session(SimpleNamespace(cli=SimpleNamespace(main=main)), fit)
    for argv in next(fit.cycles(2))[:4]:
        session.run(argv)
    assert (session.attempted, session.failed) == (4, 3)


def test_tracer_reports_absent_boundaries(lovelab):
    boundaries = spans.BOUNDARIES + (
        ("quadrature.gone", "quadrature", "_renamed_away", None),
        ("nowhere.x", "no_such_module", "x", None),
    )
    tracer = spans.Tracer(boundaries=boundaries)
    with tracer:
        assert "quadrature._renamed_away" in tracer.absent
        assert "no_such_module.x" in tracer.absent
        with contextlib.redirect_stdout(io.StringIO()):
            assert lovelab.cli.main(["solve", "--kappa", "1"]) == 0
    assert len(tracer.absent) == 2
    assert spans.wrapped() == []
    assert lovelab.quadrature._tanh_sinh is lovelab.conjectures._tanh_sinh
    assert not hasattr(lovelab.love.solve_love, "__wrapped__")


def test_layer_metrics_and_zero_call_pairings(lovelab):
    verify, _, _ = _traced(lovelab, workloads.WORKLOADS["verify-all"],
                           [workloads.VerifyAll.ARGV])
    assert set(verify) == set(run.declared("per_layer"))
    assert verify["love.solve_love.calls"] == 0
    assert verify["love.nodes.sum"] == 0
    assert verify["specfun.w_upper.calls"] > 0
    assert verify["specfun.w_upper.elems"] > verify["specfun.w_upper.calls"]
    assert verify["quadrature.tanh_sinh.evals"] > 0
    assert verify["conjectures.verify_gamma0.s"] > 0

    scan = workloads.WORKLOADS["solve-scan"]
    argv = scan.argv(0.3, 2.0)
    first, session, tracer = _traced(lovelab, scan, [argv])
    again, _, _ = _traced(lovelab, scan, [argv])
    assert session.failed == 0
    for metrics in (first, again):
        assert metrics["love.solve_love.calls"] == scan.POINTS
        assert metrics["specfun.w_upper.calls"] == 0
        assert metrics["specfun.polylog_exp_neg.calls"] == 0
        assert metrics["specfun.dk.calls"] == 0
        assert metrics["quadrature.tanh_sinh.calls"] == 0
    counts = [k for k, u in run.declared("per_layer").items() if u == "count"]
    assert {k: first[k] for k in counts} == {k: again[k] for k in counts}
    share = run.residual_share(lovelab, tracer.spans, 1)
    assert 0.0 < share < 1.0

    fit = workloads.WORKLOADS["fit-weak"]
    small, _, _ = _traced(lovelab, fit, [fit.argv(0.02, 0.05, 5)])
    assert small["love.solve_love.calls"] == 5
    assert small["asymptotics.epsilon_of_gamma.calls"] == 5
    assert small["specfun.w_upper.calls"] == 0


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        [0, "cli.main", 0.0, 10.0, None, 0, None],
        [0, "love.solve_love", 1.0, 4.0, 0, 240, None],
        [0, "love.solve_love", 3.0, 6.0, 0, 240, None],   # other thread, overlaps
        [0, "love.observables", 8.0, 9.0, 0, 0, None],
    ]
    tot = spans.totals(recorded)
    assert tot["cli.main"]["self_s"] == pytest.approx(4.0)
    assert tot["love.solve_love"] == {"calls": 2, "s": 6.0, "self_s": 6.0, "count": 480}
    metrics = run.layer_metrics(recorded, 2, run.declared("per_layer"), 0.25, 0.05)
    assert metrics["love.nodes.sum"] == 240
    assert metrics["love.residual_check.share"] == 0.25
    assert metrics["specfun.w_upper.calls"] == 0
    assert metrics["love.matrix_mb.computed"] == pytest.approx(8 * 240 ** 2 / 2 ** 20)
    assert metrics["cli.main.self_s"] == pytest.approx(2.0)


def test_rss_probe_counts_its_commands(lovelab):
    verify = workloads.WORKLOADS["verify-all"]
    session = run.Session(lovelab, verify)
    peak = run.measure_peak_rss(verify, session)
    assert 20.0 < peak < 1000.0
    assert (session.attempted, session.failed) == (verify.rss_repeats, 0)


def test_untraced_session_wraps_nothing(lovelab):
    session = run.Session(lovelab, workloads.WORKLOADS["solve-scan"])
    session.run(["solve", "--kappa-min", "1", "--kappa-max", "2",
                 "--kappa-points", "16", "--workers", "2"])
    assert session.failed == 0
    assert spans.wrapped() == []
