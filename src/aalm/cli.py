"""Command-line front end.

Subcommands::

    aalm run <config.json> [--emit-gnuplot]
    aalm certify-schedule --rule cd --alpha 10 [--kmax N]
    aalm oracle <instance.json> [--out FILE]
    aalm --version

Exit codes: 0 success (``--help`` and ``--version`` included), 1
configuration or usage error, or a file that cannot be read or written,
2 solver/oracle failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .harness import load_instance, parse_config, run_experiment
from .oracle import kkt_refine, save_kkt
from .schedule import (DEFAULT_HORIZON, SCHEDULE_RULES, certify_rho,
                       named_schedule)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with ``EXIT_CONFIG``
    (argparse's own code, 2, is this CLI's solver-failure code).  Its
    subcommand parsers are of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(
        prog="aalm",
        description="Accelerated augmented Lagrangian benchmark harness")
    parser.add_argument("--version", action="version",
                        version=f"aalm {__version__}")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="JSON experiment config")
    p_run.add_argument("--emit-gnuplot", action="store_true",
                       help="also write a gnuplot script with the six "
                            "standard panels")

    p_cert = sub.add_parser("certify-schedule",
                            help="measure a schedule's growth constant")
    p_cert.add_argument("--rule", required=True,
                        help=" | ".join(SCHEDULE_RULES))
    p_cert.add_argument("--alpha", type=float, default=None)
    p_cert.add_argument("--kmax", type=int, default=DEFAULT_HORIZON)

    p_or = sub.add_parser("oracle",
                          help="compute a reference KKT pair for an instance")
    p_or.add_argument("instance",
                      help="instance manifest (or a problem block JSON with "
                           "a 'builtin' key)")
    p_or.add_argument("--out", default=None,
                      help="sidecar CSV to write (default: next to the "
                           "manifest)")
    return parser


def _cmd_run(args):
    config = parse_config(args.config)
    if args.emit_gnuplot:
        config = replace(config, emit_gnuplot=True)
    rows = run_experiment(config)
    failed = [r["name"] for r in rows if r["status"] != "ok"]
    ref_failed = any(str(r["reference"]).startswith("failed") for r in rows)
    for r in rows:
        print(f"{r['name']}: {r['status']}  "
              f"(feas={r['final_feas']}, obj_res={r['final_obj_res']})")
    if failed or ref_failed:
        if failed:
            print(f"failed solvers: {', '.join(failed)}", file=sys.stderr)
        if ref_failed:
            print("reference computation failed", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_certify(args):
    sched = named_schedule(args.rule, args.alpha)
    rho_hat = certify_rho(sched, args.kmax)
    print(f"rule={args.rule} kmax={args.kmax} rho_hat={rho_hat!r}")
    print(f"admissible eta range: [{min(rho_hat, 1.0)!r}, 1]")
    return EXIT_OK


def _cmd_oracle(args):
    path = Path(args.instance)
    instance = load_instance(path)
    kkt = kkt_refine(instance)
    out = Path(args.out) if args.out else path.with_suffix(".kkt.csv")
    save_kkt(out, kkt)
    print(f"{instance.name}: kkt_tol={kkt.kkt_tol!r} -> {out}")
    return EXIT_OK


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_CONFIG
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "certify-schedule":
            return _cmd_certify(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
