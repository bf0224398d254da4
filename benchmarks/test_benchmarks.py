"""Tests of the benchmark itself: generators, tracing and the result line.

Run from the repository root with ``python -m pytest benchmarks -q``.
"""

import json
import os
import sys
import time

import pytest

import reference
from worker import SRC, layer_metrics, run_cases

sys.path.insert(0, SRC)

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import CASE_TIMER_SLACK_NS, Tracer, instrument  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_cases_other_seed_other_cases(workload):
    a = workloads.generate(workload, 7)
    assert a == workloads.generate(workload, 7)
    assert len(a) >= 100
    for other in (8, 9, 123456):
        assert workloads.generate(workload, other) != a


def test_seeds_change_gamma_and_instances():
    def gammas(seed):
        return [c["params"][-1] for c in workloads.generate("identities", seed)
                if c["kind"] == "general"]

    def instances(seed, workload):
        return [(c["family"], c["alpha"], c["beta"], c["f"])
                for c in workloads.generate(workload, seed)]

    assert gammas(1) != gammas(2)
    assert instances(1, "hook-eval") != instances(2, "hook-eval")
    assert instances(1, "hook-exact") != instances(2, "hook-exact")


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("workload", ["hook-eval", "hook-exact"])
def test_every_generated_hook_instance_builds(workload, seed):
    from qthook.dposet import build_family
    from qthook.partitions import Partition

    for case in workloads.generate(workload, seed):
        beta = case["beta"]
        poset = build_family(case["family"], Partition.parse(case["alpha"]),
                             Partition.parse(beta) if beta else None, case["f"])
        assert len(poset) > 0
        assert case["degree"] >= 1 and case["points"] >= 1


def test_identity_cases_are_valid_inputs():
    for seed in (0, 1):
        for case in workloads.generate("identities", seed):
            if case["kind"] == "general":
                m, n, k0, rho0, theta0, gamma = case["params"]
                assert 0 <= k0 <= rho0 <= theta0 and len(gamma) == n


def _fake_round(traced: bool) -> dict:
    return {"cases": 4, "case_ms": [1.0, 2.0, 3.0, 40.0], "wall_s": 0.5,
            "case_ref_ms": [1.5, 2.5, 3.5, 45.0], "wall_ref_s": 0.6,
            "slice_ms": [25.0, 30.0], "setup_s": 0.1, "peak_rss_mb": 30.0,
            "traced": traced,
            "layers": layer_metrics(Tracer())}


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_printer_emits_every_end_to_end_metric_with_its_unit():
    rounds = [_fake_round(False) for _ in range(3)]
    line = run.result_line(run.end_to_end(rounds, [0.1, 0.2]),
                           dict(run.END_TO_END).get,
                           12, 0, True)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        _units("end_to_end")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_printer_emits_every_per_layer_metric_with_its_unit():
    metrics = run.per_layer([_fake_round(True)], [_fake_round(False)])
    line = run.result_line(metrics, run.layer_unit, 2, 0, True)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        _units("per_layer")


def test_traced_cases_are_consistent_and_bindings_restored():
    from qthook import hookformula, qtcore, series

    before = (hookformula.enumerate_p_partitions, qtcore.BiPoly.__mul__,
              series.QTCoeff.equals)
    cases = [workloads._hook_case("bird", "2,1", "2,1", 1, 4, "exact", 1, 5),
             workloads._hook_case("shifted", "3,1", None, None, 4, "eval", 2, 5),
             {"kind": "pieri", "params": ["1", 1, 2, "psi"]},
             {"kind": "gram", "params": ["2", 2]},
             {"kind": "lemma", "params": [1, 0, 1, 2, 1]}]
    tracer = Tracer()
    with instrument(tracer):
        reports, case_ns, _, failures, _, _ = run_cases(cases, tracer)
    assert failures == []
    assert before == (hookformula.enumerate_p_partitions,
                      qtcore.BiPoly.__mul__, series.QTCoeff.equals)
    assert tracer.check_consistency(case_ns) == []
    layers = layer_metrics(tracer)
    assert layers["dposet.p_partitions"] > 0
    assert layers["qtcore.bipoly_mul_calls"] > 0
    assert layers["polyops.gcd_calls"] > 0


def _one_traced_case(child_s: float) -> tuple[Tracer, int]:
    """A case span holding one child span that lasts ``child_s``."""
    def case(_):
        idx = tracer.open(1)
        time.sleep(child_s)
        tracer.close(idx)

    tracer = Tracer()
    t0 = time.perf_counter_ns()
    tracer.in_case(0, case, None)
    return tracer, time.perf_counter_ns() - t0


def test_consistency_check_catches_a_misplaced_span():
    tracer, timed = _one_traced_case(0)
    assert tracer.check_consistency([timed]) == []
    tracer.start[1] = tracer.start[0] - 1
    assert tracer.check_consistency([timed])


def test_consistency_check_catches_spans_that_do_not_add_up():
    tracer, timed = _one_traced_case(0.005)
    assert tracer.check_consistency([timed]) == []
    # the case timer saw work that no span covers
    assert tracer.check_consistency([timed + 2 * CASE_TIMER_SLACK_NS])
    # the child's time is booked to another case
    tracer.case[1] = 1
    errors = tracer.check_consistency([timed])
    assert any(e.startswith("case 0:") for e in errors)
    assert "spans of case 1, which never ran" in errors


def test_a_crashing_case_is_a_failure_not_an_abort():
    cases = [{"kind": "lemma", "params": [0, 2, 1, 3, 0]},  # k0 > rho0
             {"kind": "lemma", "params": [0, 0, 1, 1, 0]}]
    reports, case_ns, _, failures, _, _ = run_cases(cases)
    assert [r["result"] for r in reports] == ["error", "pass"]
    assert [f["case"] for f in failures] == [0]
    assert "ValueError" in reports[0]["error"] and len(case_ns) == 2


def test_times_are_scaled_by_the_slices_around_them(monkeypatch):
    """A case timed between slices that took twice the nominal time counts
    half; one between nominal slices counts as measured."""
    nominal = int(reference.NOMINAL_SLICE_S * 1e9)
    slow = iter([2 * nominal, 2 * nominal, nominal, nominal])
    monkeypatch.setattr(reference, "slice_ns", lambda: next(slow))
    monkeypatch.setattr("worker.SLICE_EVERY_NS", 0)
    cases = [{"kind": "lemma", "params": [0, 0, 1, 1, 0]}] * 3
    _, case_ns, ref_ns, _, slices, _ = run_cases(cases)
    assert slices == [2 * nominal, 2 * nominal, nominal, nominal]
    assert ref_ns == [case_ns[0] / 2, case_ns[1] * 2 / 3, case_ns[2]]
