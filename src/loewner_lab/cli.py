"""Command-line surface: ``loewner-lab (verify | campaign | hunt)``.

Exit codes: 0 when everything holds (or no counterexample was found),
1 when a chain fails or a counterexample is found, 2 on configuration or
input errors and on an unexpected built-in error (a bug, or input that
slipped past validation).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .campaign import CampaignConfig, emit_report, run_campaign
from .chains import build_chain, check_fit, evaluate_chain, hunt_counterexample, resolve_theorem
from .errors import ConfigError, IoError, LoewnerLabError
from .functions import parse_function_spec
from .hermitian import DEFAULT_PSD_TOL, check_dims, check_int, check_tolerance
from .instances import instance_from_dict
from .maps import sample_map
from .serialize import dumps_canonical


# Exceptions of other classes propagate to in-process callers of ``main``.
_BUILTIN_ERRORS = (ArithmeticError, AttributeError, LookupError, OSError, RuntimeError,
                   TypeError, ValueError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loewner-lab",
        description="Build and verify operator inequality chains at desk scale.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="evaluate one chain on an instance file")
    p_verify.add_argument("--theorem", required=True, help="theorem id, e.g. lc-quad")
    p_verify.add_argument("--instance", required=True, help="path to the instance JSON file")
    p_verify.add_argument("--function", required=True, help='function spec, e.g. "exp" or "pow:p=-1"')
    p_verify.add_argument("--map", default=None, help="map spec for single-map theorems")
    p_verify.add_argument("--tol", type=float, default=DEFAULT_PSD_TOL)
    p_verify.add_argument("--seed", type=int, default=0, help="seed for map realization")

    p_campaign = sub.add_parser("campaign", help="run a configured verification campaign")
    p_campaign.add_argument("--config", required=True, help="path to the campaign config JSON")
    p_campaign.add_argument("--out", required=True, help="path for the report JSON")
    p_campaign.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_campaign.add_argument("--jobs", type=int, default=1,
                            help="an integer >= 1: run windows of cells in up to this many "
                                 "worker processes, capped at the cores (same output at "
                                 "any value)")

    p_hunt = sub.add_parser("hunt", help="search for counterexamples under a relaxed hypothesis")
    p_hunt.add_argument("--theorem", required=True)
    p_hunt.add_argument("--relax", default=None,
                        help="hypothesis to drop: cond-i-f, cond-i-sum, cond-ii-f, "
                             "cond-ii-sum, equal-sum; omit to sample valid instances")
    p_hunt.add_argument("--function", required=True)
    p_hunt.add_argument("--budget", type=int, default=1000)
    p_hunt.add_argument("--seed", type=int, default=0)
    p_hunt.add_argument("--map", default=None,
                        help='map spec; default "family:n=3" on family theorems, else identity')
    p_hunt.add_argument("--dims", default="1,2,3", help="comma-separated dimensions to cycle")
    p_hunt.add_argument("--m", type=float, default=1.0)
    p_hunt.add_argument("--M", type=float, default=2.0)
    p_hunt.add_argument("--tol", type=float, default=DEFAULT_PSD_TOL)
    return parser


def _read_json(path, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {what} file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IoError(f"{what} file is not valid JSON: {exc}") from exc


def _cmd_verify(args) -> int:
    check_tolerance(args.tol)
    check_int(args.seed, "seed")
    spec = resolve_theorem(args.theorem)
    f = parse_function_spec(args.function)
    inst = instance_from_dict(_read_json(args.instance, "instance"))
    map_spec = check_fit(spec, f, args.map, [inst.dim], inst.m, inst.M, drawn=False)
    maps = sample_map(map_spec, inst.dim, args.seed) if spec.map_mode == "single" else None
    chain = build_chain(spec.id, inst, f, maps, tol=args.tol)
    report = evaluate_chain(chain, args.tol, seed=args.seed)
    print(dumps_canonical(report.to_dict()))
    return 0 if report.passed else 1


def _cmd_campaign(args) -> int:
    payload = _read_json(args.config, "config")
    if args.seed is not None and isinstance(payload, dict):
        payload["seed"] = args.seed
    config = CampaignConfig.from_dict(payload)
    report = run_campaign(config, jobs=args.jobs)
    emit_report(report, args.out)
    ran = [c for c in report.cells if not c.skipped]
    skipped = len(report.cells) - len(ran)
    fails = sum(c.fail_count for c in ran)
    print(f"campaign {report.verdict}: {len(ran)} cells run, {skipped} skipped, "
          f"{fails} failing instances -> {args.out}")
    return 0 if report.passed else 1


def _cmd_hunt(args) -> int:
    f = parse_function_spec(args.function)
    try:
        dims = [int(d) for d in args.dims.split(",") if d.strip()]
    except ValueError:
        raise ConfigError(f"--dims: entries must be integers, got {args.dims!r}") from None
    dims = check_dims(dims, "--dims")
    result = hunt_counterexample(
        args.theorem, args.relax, args.budget, args.seed, f,
        map_spec=args.map, dims=dims, m=args.m, M=args.M, tol=args.tol,
    )
    payload = {
        "found": result is not None,
        "theorem": resolve_theorem(args.theorem).id,
        "relaxation": args.relax,
        "seed": int(args.seed),
    }
    if result is None:
        payload["budget"] = int(args.budget)
    else:
        payload.update(attempt=int(result.attempt_index), instance=result.instance.to_dict(),
                       report=result.report.to_dict())
    print(dumps_canonical(payload))
    return 0 if result is None else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "campaign":
            return _cmd_campaign(args)
        if args.command == "hunt":
            return _cmd_hunt(args)
        parser.error(f"unknown command {args.command!r}")
    except LoewnerLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _BUILTIN_ERRORS as exc:  # exit 1 is reserved for failing chains
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
