"""Batch verification front end.

Exit codes: 0 all checks pass, 1 a check fails, 2 usage errors, 3 an
internal error (an exception inside qthook, printed as one line).  Reports are
JSON (one object per check); the seed fully determines evaluation points and
random sweeps, so identical configurations reproduce identical reports up to
the elapsed-time field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .dposet import build_family, d_complete_check, find_dk_intervals, \
    hook_monomials, hook_monomials_closed_form
from .partitions import Partition
from . import suites

USAGE_ERROR = 2
INTERNAL_ERROR = 3


def _parse_partition(text: str, name: str) -> Partition:
    try:
        return Partition.parse(text)
    except ValueError as exc:
        raise SystemExit(_usage(f"bad {name}: {exc}"))


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _emit(payload, out_path: str | None):
    """Print the payload (text as given, anything else as JSON) or write it
    to ``out_path``; an unwritable path is a usage error."""
    if not isinstance(payload, str):
        payload = json.dumps(payload, sort_keys=True, indent=2)
    if not out_path:
        print(payload)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(payload + "\n")
    except OSError as exc:
        raise SystemExit(_usage(f"cannot write --out: {exc}"))


def _build_poset(args):
    """The family poset; the builders' ValueError is a usage error."""
    alpha = _parse_partition(args.alpha, "alpha")
    beta = _parse_partition(args.beta, "beta") if args.beta else None
    try:
        return build_family(args.family, alpha, beta, args.f)
    except ValueError as exc:
        raise SystemExit(_usage(str(exc)))


def cmd_verify_hook(args) -> int:
    poset = _build_poset(args)
    if args.degree < 0:
        raise SystemExit(_usage("--degree must be >= 0"))
    if args.mode == "eval" and args.points < 1:
        raise SystemExit(_usage("eval mode needs --points >= 1"))
    report = suites.verify_poset(poset, args.degree, args.mode, args.points,
                                 args.seed)
    _emit(report.to_dict(), args.out)
    return 0 if report.passed else 1


def cmd_verify_identity(args) -> int:
    if args.name not in suites.IDENTITY_NAMES:
        raise SystemExit(_usage(
            f"unknown identity {args.name!r}; choose from "
            + ", ".join(suites.IDENTITY_NAMES)))
    if args.trials is None:
        report = suites.run_identity(args.name, seed=args.seed)
    elif args.name != "gasper":
        raise SystemExit(_usage("--trials applies only to --name gasper"))
    elif args.trials < 1:
        raise SystemExit(_usage("--trials must be >= 1"))
    else:
        report = suites.run_identity(args.name, seed=args.seed,
                                     trials=args.trials)
    _emit(report.to_dict(), args.out)
    return 0 if report.passed else 1


def cmd_verify_all(args) -> int:
    if args.points < 1:
        raise SystemExit(_usage("--points must be >= 1"))
    reports = []
    for r in suites.run_all(seed=args.seed, points=args.points):
        status = "PASS" if r.passed else "FAIL"
        label = r.check if not r.params else f"{r.check} {r.params}"
        print(f"{status} {label}", file=sys.stderr)
        reports.append(r)
    reports.sort(key=lambda r: (r.check, str(r.params)))
    payload = {
        "schemaVersion": 1,
        "profile": args.profile,
        "checks": [r.to_dict() for r in reports],
        "result": "pass" if all(r.passed for r in reports) else "fail",
    }
    _emit(payload, args.out)
    return 0 if all(r.passed for r in reports) else 1


def _poset_json(poset) -> dict:
    rec = hook_monomials(poset)
    closed = hook_monomials_closed_form(poset)
    ok, reason = d_complete_check(poset)
    return {
        "family": poset.family,
        "params": {k: str(v) for k, v in poset.params.items()},
        "elements": [list(e) for e in poset.elements],
        "covers": [[list(lo), list(hi)] for lo, hi in sorted(poset.covers)],
        "colors": {str(e): poset.color[e] for e in poset.elements},
        "ranks": {str(e): poset.rank[e] for e in poset.elements},
        "topTree": sorted(list(e) for e in poset.top_tree),
        "dkIntervals": [{"k": iv.k, "bottom": list(iv.bottom),
                         "top": list(iv.top),
                         "sides": sorted(list(s) for s in iv.sides)}
                        for iv in find_dk_intervals(poset)],
        "dComplete": ok,
        "dCompleteFailure": reason,
        "hooks": {str(e): dict(sorted(m.items())) for e, m in rec.items()},
        "hooksClosedForm": {str(e): dict(sorted(m.items()))
                            for e, m in closed.items()},
        "hookAgreement": rec == closed,
    }


def _poset_dot(poset) -> str:
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for e in poset.elements:
        label = f"({e[0]},{e[1]}):{poset.color[e]}"
        shape = "doublecircle" if e in poset.top_tree else "circle"
        lines.append(f'  "{e}" [label="{label}", shape={shape}];')
    for lo, hi in sorted(poset.covers):
        lines.append(f'  "{lo}" -> "{hi}";')
    lines.append("}")
    return "\n".join(lines)


def cmd_show(args) -> int:
    poset = _build_poset(args)
    if args.what == "hooks":
        if args.format == "dot":
            raise SystemExit(_usage("--format dot applies only to show poset"))
        rec = hook_monomials(poset)
        closed = hook_monomials_closed_form(poset)
        payload = {
            "family": poset.family,
            "hooks": {str(e): dict(sorted(m.items())) for e, m in rec.items()},
            "agreement": rec == closed,
        }
        _emit(payload, args.out)
        return 0 if payload["agreement"] else 1
    if args.format == "dot":  # the Hasse diagram alone: nothing is checked
        _emit(_poset_dot(poset), args.out)
        return 0
    payload = _poset_json(poset)
    _emit(payload, args.out)
    return 0 if payload["dComplete"] and payload["hookAgreement"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qthook",
        description="exact verification of (q,t)-hook product formulas")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification")
    vsub = verify.add_subparsers(dest="verify_what", required=True)

    hook = vsub.add_parser("hook", help="the hook product identity itself")
    hook.add_argument("--family", required=True,
                      choices=["shifted", "bird", "banner"])
    hook.add_argument("--alpha", required=True)
    hook.add_argument("--beta")
    hook.add_argument("--f", type=int)
    hook.add_argument("--degree", type=int, default=3)
    hook.add_argument("--mode", choices=["exact", "eval"], default="exact")
    hook.add_argument("--points", type=int, default=3)
    hook.add_argument("--seed", type=int)
    hook.add_argument("--out")
    hook.set_defaults(func=cmd_verify_hook)

    ident = vsub.add_parser("identity", help="a named identity sweep")
    ident.add_argument("--name", required=True)
    ident.add_argument("--trials", type=int,
                       help="number of draws for gasper (default 50)")
    ident.add_argument("--seed", type=int)
    ident.add_argument("--out")
    ident.set_defaults(func=cmd_verify_identity)

    allp = vsub.add_parser("all", help="the full desk profile")
    allp.add_argument("--profile", default="desk", choices=["desk"])
    allp.add_argument("--points", type=int, default=3)
    allp.add_argument("--seed", type=int)
    allp.add_argument("--out")
    allp.set_defaults(func=cmd_verify_all)

    show = sub.add_parser("show", help="inspect a poset")
    show.add_argument("what", choices=["poset", "hooks"])
    show.add_argument("--family", required=True,
                      choices=["shifted", "bird", "banner"])
    show.add_argument("--alpha", required=True)
    show.add_argument("--beta")
    show.add_argument("--f", type=int)
    show.add_argument("--format", choices=["dot", "json"], default="json")
    show.add_argument("--out")
    show.set_defaults(func=cmd_show)
    return parser


def _env_seed() -> int:
    """QTHOOK_SEED (default 0), the seed of a run without --seed."""
    text = os.environ.get("QTHOOK_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise SystemExit(_usage(f"QTHOOK_SEED must be an integer, got {text!r}"))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "seed" in args and args.seed is None:
        args.seed = _env_seed()
    try:
        return args.func(args)
    except Exception as exc:  # SystemExit (usage errors) passes through
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
