"""qthook benchmark: seeded workloads, each round in a fresh worker process.

    python3 benchmarks/run.py --workload identities --seed 0 --seconds 40 --trace 0

The load is a closed loop in one process with no threads: the next case
starts when the previous one has finished.  A round generates the
workload's cases from the seed and runs all of them in a fresh interpreter
(``worker.py``), so every round starts with cold qthook caches.  Rounds of
the same cases repeat while the next one still fits in ``--seconds`` (at
least ``MIN_ROUNDS``).  Before each round ``SETUPS_PER_ROUND`` more workers
only set up, as samples of the set-up time.

The host is a share of a machine whose speed moves by tens of percent as
other tenants' load changes, often within a second.  So the worker
interleaves short slices of fixed reference work with the cases
(``reference.py``) and every time metric is given at reference speed: a
time measured while a slice took twice ``NOMINAL_SLICE_S`` counts half.
With ``--trace 0`` the result holds the end-to-end metrics:

* ``setup_s``: interpreter start to the start of the first case
  (``import qthook`` and case generation), scaled by the slice timed right
  after it; the median over every set-up sample and every round;
* ``wall_ref_s``: the time the round's cases took, back to back, scaled by
  the round's mean slice; the median over rounds;
* ``cases_per_ref_s``: cases verified per second at the stated case count,
  from ``wall_ref_s``;
* ``case_ref_ms.p50`` / ``case_ref_ms.p90``: per-case time, each case
  scaled by the mean of the slices just before and after it, over every
  case of every round (rounds x cases samples);
* ``peak_rss_mb``: the worker's ``ru_maxrss`` at the end of a round, the
  median over rounds.

The table before the result line also shows the same times as measured
(``wall_s``, ``cases_per_s``, ``case_ms.*``) and the mean slice time.

With ``--trace 1`` untraced and traced rounds alternate, at least
``MIN_ROUNDS`` of each; the result holds the per-layer metrics, medians
over the traced rounds (see ``tracing.py``; times scaled by the round's
mean slice), and ``trace.overhead_s``, the median over pairs of traced
minus untraced ``wall_ref_s``.  The untraced figures of that run are
printed beside it, never mixed into it.

Every case must end in a verified pass.  The reports (``elapsedMs``
removed) are hashed; every round must give the same digest, traced or not,
and for the default seed it must equal the one in ``digests.json``.  The
last line of stdout is the JSON result; the exit code is 0 only when every
check held.  ``digests.json`` is data: when a change to the reports is
intended, copy the digest from the printed environment line into it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from reference import NOMINAL_SLICE_S
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
SPANS_DIR = os.path.join(HERE, "out")
DEFAULT_SEED = 0
MIN_ROUNDS = 3
SETUPS_PER_ROUND = 2
# A run never starts a round that would end after this, whatever --seconds.
HARD_LIMIT_S = 150
WORKER_TIMEOUT_S = 170

END_TO_END = [("setup_s", "s"), ("wall_ref_s", "s"),
              ("cases_per_ref_s", "1/s"), ("case_ref_ms.p50", "ms"),
              ("case_ref_ms.p90", "ms"), ("peak_rss_mb", "MB")]
AS_MEASURED = [("wall_s", "s"), ("cases_per_s", "1/s"), ("case_ms.p50", "ms"),
               ("case_ms.p90", "ms"), ("slice_ms.mean", "ms")]
PER_LAYER_UNITS = {"_ms": "ms", "_us_per_pi": "us", "_ratio": "ratio",
                   "_bits": "bits", "_s": "s"}


def layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


class WorkerFailed(Exception):
    pass


def run_worker(workload: str, seed: int, traced: bool,
               setup_only: bool = False) -> dict:
    """One round, or only its set-up; adds ``setup_s``, measured from the
    spawn and scaled to reference speed."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    if traced:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--trace", "--spans",
                os.path.join(SPANS_DIR, f"spans-{workload}.csv")]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = ((result["setup_end_monotonic"] - spawned)
                         * NOMINAL_SLICE_S * 1e3 / result["setup_slice_ms"])
    return result


def run_rounds(workload: str, seed: int, seconds: float,
               pattern: tuple[bool, ...]) -> tuple[list[dict], list[float]]:
    """Repeat ``pattern`` (traced flags) while the next repeat fits.

    Returns the rounds and the set-up samples: those of the set-up-only
    workers and of the untraced rounds.
    """
    rounds, setups = [], []
    begin = time.monotonic()
    while True:
        for traced in pattern:
            for _ in range(SETUPS_PER_ROUND):
                setups.append(run_worker(workload, seed, False,
                                         setup_only=True)["setup_s"])
            rounds.append(run_worker(workload, seed, traced))
            if not traced:
                setups.append(rounds[-1]["setup_s"])
        elapsed = time.monotonic() - begin
        per_repeat = elapsed / (len(rounds) // len(pattern))
        enough = len(rounds) >= MIN_ROUNDS * len(pattern)
        if elapsed + per_repeat > (seconds if enough else HARD_LIMIT_S):
            return rounds, setups


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) by ``statistics.quantiles``."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(rounds: list[dict], setups: list[float]) -> dict[str, float]:
    case_ms = [ms for r in rounds for ms in r["case_ref_ms"]]
    wall = statistics.median(r["wall_ref_s"] for r in rounds)
    return {
        "setup_s": statistics.median(setups),
        "wall_ref_s": wall,
        "cases_per_ref_s": rounds[0]["cases"] / wall,
        "case_ref_ms.p50": statistics.median(case_ms),
        "case_ref_ms.p90": quantile(case_ms, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def as_measured(rounds: list[dict]) -> dict[str, float]:
    """The same times unscaled, for the table only."""
    case_ms = [ms for r in rounds for ms in r["case_ms"]]
    wall = statistics.median(r["wall_s"] for r in rounds)
    return {
        "wall_s": wall,
        "cases_per_s": rounds[0]["cases"] / wall,
        "case_ms.p50": statistics.median(case_ms),
        "case_ms.p90": quantile(case_ms, 90),
        "slice_ms.mean": statistics.mean(
            ms for r in rounds for ms in r["slice_ms"]),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Medians over traced rounds; the overhead is the median over pairs of
    an untraced round and the traced round right after it."""
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead_s"] = statistics.median(
        t["wall_ref_s"] - u["wall_ref_s"] for u, t in zip(untraced, traced))
    return out


def check(workload: str, seed: int, rounds: list[dict]) -> list[str]:
    """Every reason the run is not correct; empty when it is."""
    problems = []
    for r in rounds:
        for fail in r["failures"][:3]:
            problems.append(f"case {fail['case']} {fail['input']}: "
                            f"{json.dumps(fail['report'])[:500]}")
        for err in r.get("trace_errors", []):
            problems.append(f"trace: {err}")
    digests = {r["digest"] for r in rounds}
    if len(digests) > 1:
        problems.append(f"rounds disagree: digests {sorted(digests)}")
    if seed == DEFAULT_SEED:
        with open(DIGESTS) as fh:
            recorded = json.load(fh).get(workload)
        if rounds[0]["digest"] != recorded:
            problems.append(f"digest {rounds[0]['digest']} differs from the "
                            f"recorded {recorded}")
    return problems


def result_line(metrics: dict[str, float], units_of, attempted: int,
                failed: int, correct: bool) -> dict:
    """The benchmark's last line: every metric by name, with its unit."""
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of(name)}
                    for name, value in metrics.items()},
    }


def _git_commit() -> str:
    """HEAD of the checkout, read without running git; "unknown" outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int, rounds: list[dict]) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "cases": rounds[0]["cases"],
        "rounds": len(rounds),
        "caches": "cold (fresh process)",
        "load": "closed loop, one process, no threads",
    }


def _print_table(title: str, metrics: dict[str, float], unit_of):
    print(title)
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.4f} {unit_of(name)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    pattern = (False, True) if args.trace else (False,)
    try:
        rounds, setups = run_rounds(args.workload, args.seed, args.seconds,
                                    pattern)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    problems = check(args.workload, args.seed, rounds)
    untraced = [r for r in rounds if not r["traced"]]
    e2e = end_to_end(untraced, setups)
    units = dict(END_TO_END)
    env = environment(args.workload, args.seed, untraced)
    env["digest"] = rounds[0]["digest"]
    print(json.dumps({"environment": env}))
    _print_table(f"end to end, {len(untraced)} untraced rounds of "
                 f"{env['cases']} cases (percentiles over "
                 f"{len(untraced) * env['cases']} case times, set-up over "
                 f"{len(setups)} samples), at reference speed", e2e, units.get)
    _print_table("the same, as measured", as_measured(untraced),
                 dict(AS_MEASURED).get)
    attempted = sum(r["cases"] for r in rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    print(f"  {'fail_ratio':34s} {failed / attempted:14.4f} "
          f"({failed} of {attempted})")
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        metrics = per_layer(traced, untraced)
        _print_table(f"per layer, median of {len(traced)} traced rounds "
                     f"({traced[0]['spans']} spans each)", metrics, layer_unit)
        units_of = layer_unit
    else:
        metrics = e2e
        units_of = units.get
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps(result_line(metrics, units_of, attempted, failed,
                                 not problems)))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
