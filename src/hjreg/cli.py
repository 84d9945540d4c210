"""Command-line front end: scenario runs, ensembles, chain inspection.

Exit codes are part of the interface: 0 when every check passed or was
vacuous, 1 when some check refuted its implication on data, 2 for
configuration problems (including bad chain parameters and a grid too large
to allocate), 3 for runtime failures such as a solver abort.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .experiment import (
    ConfigError,
    bundled_scenarios,
    ensemble,
    parse_config,
    run,
    run_directory,
)
from .grid import write_json
from .oscillation import build_constant_chain

__all__ = ["main"]

_EXIT = {"pass": 0, "vacuous": 0, "refuted": 1, "error": 3}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hjreg",
        description="Finite-difference regularity experiments for coercive "
        "Hamilton-Jacobi equations on periodic-free boxes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario config")
    p_run.add_argument(
        "--config", required=True,
        help="config file path or bundled scenario name",
    )
    p_run.add_argument("--out", default=None, help="output directory root")
    p_run.add_argument(
        "--seed", type=int, default=None, help="initial-data seed override"
    )
    p_run.add_argument(
        "--resolution", type=int, default=None,
        help="cells-per-axis override (dt rescales to keep the CFL ratio)",
    )

    p_ens = sub.add_parser(
        "ensemble", help="run seeded initial-data draws of one scenario"
    )
    p_ens.add_argument(
        "--config", required=True,
        help="config file path or bundled scenario name",
    )
    p_ens.add_argument(
        "--count", required=True, type=int, help="number of members"
    )
    p_ens.add_argument(
        "--seed", required=True, type=int, help="master seed for member draws"
    )

    p_chain = sub.add_parser(
        "chain", help="derive and print the constant chain as JSON"
    )
    p_chain.add_argument(
        "--N", required=True, type=int, dest="dimension",
        help="spatial dimension",
    )
    p_chain.add_argument(
        "--p", required=True, type=float, help="gradient growth exponent"
    )
    p_chain.add_argument(
        "--lambda", required=True, type=float, dest="lam",
        help="coercivity constant",
    )
    p_chain.add_argument(
        "--alpha", required=True, type=float,
        help="middle-layer measure threshold",
    )

    sub.add_parser("list-scenarios", help="list bundled scenario configs")
    return parser


def _detail(entry: dict) -> str:
    """One compact clause of the most informative numbers a check carries."""
    bits: list[str] = []
    if entry.get("sup_errors"):
        bits.append(f"sup_error={entry['sup_errors'][-1]:.3g}")
    # an infinite order is written as null
    finite = [o for o in entry.get("orders") or () if o is not None]
    if finite:
        bits.append(f"order={min(finite):.2f}")
    estimate = entry.get("estimate")
    if estimate and estimate.get("alpha_est") is not None:
        bits.append(f"alpha_est={estimate['alpha_est']:.3f}")
    if entry.get("alpha_min") is not None:
        bits.append(f"alpha_min={entry['alpha_min']:.3f}")
    if entry.get("n_unsatisfied"):
        bits.append(f"unsatisfied={entry['n_unsatisfied']}")
    if entry.get("message"):
        bits.append(entry["message"])
    return f" ({', '.join(bits)})" if bits else ""


def _print_checks(checks) -> None:
    for entry in checks:
        print(f"  {entry['check']}: {entry['status']}{_detail(entry)}")


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    report = run(
        cfg, out_dir=args.out, seed=args.seed, resolution=args.resolution
    )
    _print_checks(report.to_json_dict()["checks"])
    if report.error is not None:
        stage = report.error.get("stage", "?")
        print(f"  error at {stage}: {report.error.get('message')}")
    run_dir = run_directory(cfg, args.out, args.seed)
    print(f"status: {report.status}")
    print(f"report: {run_dir / 'report.json'}")
    return _EXIT[report.status]


def _cmd_ensemble(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    report = ensemble(cfg, args.count, args.seed)
    counts = ", ".join(f"{k}={v}" for k, v in report.counts.items() if v)
    print(f"  members: {report.count} ({counts})")
    if report.chain_search is not None:
        trail = ", ".join(
            f"alpha={t['alpha']:g}: {t['status']}" for t in report.chain_search
        )
        print(f"  chain search: {trail}")
    run_dir = run_directory(cfg, None, args.seed, args.count)
    print(f"status: {report.status}")
    print(f"report: {run_dir / 'report.json'}")
    return _EXIT[report.status]


def _cmd_chain(args: argparse.Namespace) -> int:
    try:
        chain = build_constant_chain(args.dimension, args.p, args.lam, args.alpha)
    except ValueError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    write_json(chain.to_json_dict(), sys.stdout)
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    for name in bundled_scenarios():
        print(name)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "ensemble": _cmd_ensemble,
    "chain": _cmd_chain,
    "list-scenarios": _cmd_list,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        # the 2**60-value rule admits lattices no host can allocate
        print(f"config error: grid too large to allocate: {err}", file=sys.stderr)
        return 2
    except Exception:
        # anything unexpected is a runtime failure, not a refutation; keep
        # exit 1 reserved for genuine refuted implications
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
