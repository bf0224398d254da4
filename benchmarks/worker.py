"""One benchmark round: a fresh interpreter runs a workload's cases in turn.

Usage: python3 worker.py --workload NAME --seed N [--trace] [--spans PATH]
       python3 worker.py --workload NAME --seed N --setup-only

A fresh process means cold qthook caches (``_f_fun_cached``,
``_skew_cached``, ``partitions_of``), as every ``qthook verify`` run has.
The worker imports qthook from the ``src`` directory next to this one and
refuses any other copy.  It prints one JSON object on stdout: per-case
times (as measured and scaled to reference speed, see ``reference.py``),
the reference slice times, the verdicts' digest, the failures, peak memory
and, when traced, the per-layer numbers.  With ``--setup-only`` it stops
where the first case would start and prints only that moment and one
reference slice timed right after it, a sample of the set-up time.  It
exits 3 when qthook cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from contextlib import ExitStack

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# Case time between two slices of reference work (see reference.py).
SLICE_EVERY_NS = 200_000_000
# Per-layer metrics that are times, given at reference speed like the rest.
TIMES = ("_ms", "_us_per_pi")


def _import_qthook():
    sys.path.insert(0, SRC)
    try:
        import qthook
    except ImportError as exc:
        print(f"worker: cannot import qthook from {SRC}: {exc}", file=sys.stderr)
        sys.exit(3)
    where = os.path.dirname(os.path.abspath(qthook.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        print(f"worker: qthook was imported from {where}, not {SRC}",
              file=sys.stderr)
        sys.exit(3)


def digest(reports: list[dict]) -> str:
    """sha256 of the reports (elapsedMs already removed), in case order."""
    text = json.dumps(reports, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def layer_metrics(tracer) -> dict[str, float]:
    """The per-layer metrics of one traced round."""
    from qthook import macdonald, qtcore
    from tracing import cache_hit_ratio

    ms = tracer.layer_ms()
    calls = tracer.calls()
    weights = calls["hookformula.weight"]
    gcds = calls["polyops.gcd"]
    return {
        "dposet.build_ms": ms["dposet.build"],
        "dposet.enum_ms": ms["dposet.enum"],
        "dposet.p_partitions": tracer.p_partitions,
        "hookformula.weight_ms": ms["hookformula.weight"],
        "hookformula.weight_us_per_pi":
            ms["hookformula.weight"] * 1000 / weights if weights else 0.0,
        "hookformula.lhs_ms": ms["hookformula.lhs"],
        "hookformula.rhs_ms": ms["hookformula.rhs"],
        "series.mul_calls": calls["series.mul"],
        "series.mul_ms": ms["series.mul"],
        "series.compare_ms": ms["series.compare"],
        "series.terms": tracer.series_terms,
        "series.qtcoeff_add_ms": ms["series.qtcoeff_add"],
        "series.qtcoeff_equals_calls": calls["series.qtcoeff_equals"],
        "series.qtcoeff_equals_ms": ms["series.qtcoeff_equals"],
        "qtcore.bipoly_mul_calls": calls["qtcore.bipoly_mul"],
        "qtcore.bipoly_mul_ms": ms["qtcore.bipoly_mul"],
        "qtcore.bipoly_mul_coeff_ops": tracer.bipoly_coeff_ops,
        "qtcore.bipoly_peak_terms": tracer.bipoly_peak_terms,
        "qtcore.coeff_peak_bits": tracer.coeff_peak_bits,
        "qtcore.f_fun_hit_ratio": cache_hit_ratio(qtcore._f_fun_cached),
        "qtcore.eval_resamples": tracer.resamples,
        "polyops.gcd_calls": gcds,
        "polyops.gcd_ms": ms["polyops.gcd"],
        "polyops.divexact_ms": ms["polyops.divexact"],
        "polyops.gcd_nontrivial_ratio":
            tracer.gcd_nontrivial / gcds if gcds else 0.0,
        "macdonald.skew_ms": ms["macdonald.skew"],
        "macdonald.skew_hit_ratio": cache_hit_ratio(macdonald._skew_cached),
        "macdonald.expand_ms": ms["macdonald.expand"],
        "macdonald.gram_ms": ms["macdonald.gram"],
        "hypergeom.sides_ms": ms["hypergeom.sides"],
        "hypergeom.summands": tracer.summands,
        "hypergeom.phi_ms": ms["hypergeom.phi"],
        # the case's own work between layer calls, with the wrappers'
        # entry and exit cost for the calls it makes directly
        "glue_ms": ms["case"],
    }


def run_cases(cases: list[dict], tracer=None):
    """Run cases in turn; a crash is a verdict, not an abort.

    A slice of reference work runs before the first case and after every
    case that brings the case time since the previous slice to
    ``SLICE_EVERY_NS``, and after the last case; each case is scaled to
    reference speed by the mean of the slices just before and after it.

    Returns the reports, each case's time in ns, the same scaled to
    reference speed, the failures, the slice times in ns and the monotonic
    time at which set-up ended (just before the first slice).
    """
    from workloads import run_case

    reports, case_ns, bracket, failures = [], [], [], []
    setup_end = time.monotonic()
    slices = [reference.slice_ns()]
    since = 0
    for idx, case in enumerate(cases):
        bracket.append(len(slices) - 1)
        t0 = time.perf_counter_ns()
        try:
            if tracer is None:
                report = run_case(case)
            else:
                report = tracer.in_case(idx, run_case, case)
        except Exception as exc:
            report = {"case": case, "result": "error",
                      "error": f"{type(exc).__name__}: {exc}"}
        case_ns.append(time.perf_counter_ns() - t0)
        reports.append(report)
        if report.get("result") != "pass":
            failures.append({"case": idx, "input": case, "report": report})
        since += case_ns[-1]
        if since >= SLICE_EVERY_NS or idx == len(cases) - 1:
            slices.append(reference.slice_ns())
            since = 0
    nominal_ns = reference.NOMINAL_SLICE_S * 1e9
    ref_ns = [ns * 2 * nominal_ns / (slices[b] + slices[b + 1])
              for ns, b in zip(case_ns, bracket)]
    return reports, case_ns, ref_ns, failures, slices, setup_end


def run_round(workload: str, seed: int, traced: bool,
              spans_path: str | None) -> dict:
    from tracing import Tracer, instrument
    from workloads import generate

    cases = generate(workload, seed)
    tracer = Tracer() if traced else None
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(instrument(tracer))
        reports, case_ns, ref_ns, failures, slices, setup_end = run_cases(
            cases, tracer)
    # The round's scale to reference speed: its mean slice, since a long
    # case has no slice inside it and one pair of slices cannot stand for it.
    scale = reference.NOMINAL_SLICE_S * 1e9 * len(slices) / sum(slices)
    out = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "cases": len(cases),
        "setup_end_monotonic": setup_end,
        "setup_slice_ms": slices[0] / 1e6,
        "wall_s": sum(case_ns) / 1e9,
        "wall_ref_s": sum(case_ns) / 1e9 * scale,
        "case_ms": [ns / 1e6 for ns in case_ns],
        "case_ref_ms": [ns / 1e6 for ns in ref_ns],
        "slice_ms": [ns / 1e6 for ns in slices],
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "digest": digest(reports),
        "failures": failures,
    }
    if tracer is not None:
        out["layers"] = {name: value * scale if name.endswith(TIMES) else value
                         for name, value in layer_metrics(tracer).items()}
        out["spans"] = len(tracer)
        out["trace_errors"] = tracer.check_consistency(case_ns)[:10]
        if spans_path:
            tracer.write_spans(spans_path)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    _import_qthook()
    if args.setup_only:
        from workloads import generate
        cases = generate(args.workload, args.seed)
        setup_end = time.monotonic()
        result = {"cases": len(cases), "setup_end_monotonic": setup_end,
                  "setup_slice_ms": reference.slice_ns() / 1e6}
    else:
        result = run_round(args.workload, args.seed, args.trace, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
