"""Command-line driver.

Subcommands: ``simulate`` (trajectory CSV + metadata JSON), ``rates``
(convergence study report), ``diagnose`` (regularity reports around the
initial point), ``certify`` (full certification report), ``validate``
(scenario check only).  Exit codes: 0 pass, 1 warn under ``--strict``,
2 fail or error.  ``--json-errors`` emits machine-readable errors on
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .artifacts import dumps
from .errors import DomainError, ExpressionError, NumericsError, StructuralError
from .scenario import load_scenario
from .studies import certify_scenario, diagnose_scenario, run_rate_study
from .sweep import catching_up

EXIT_PASS = 0
EXIT_WARN = 1
EXIT_FAIL = 2


def build_parser():
    p = argparse.ArgumentParser(
        prog="manisweep",
        description="sweeping processes on Riemannian manifolds",
    )
    p.add_argument("--json-errors", action="store_true", help="emit errors as JSON on stderr")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate one trajectory")
    sim.set_defaults(run=_cmd_simulate)
    sim.add_argument("--scenario", required=True)
    sim.add_argument("--h", type=float, required=True, help="time step")
    sim.add_argument("--out", required=True, help="trajectory CSV path")
    sim.add_argument("--metadata", default=None, help="sidecar JSON path (default: <out>.meta.json)")
    sim.add_argument("--strict", action="store_true")

    rates = sub.add_parser("rates", help="convergence-rate study")
    rates.set_defaults(run=_cmd_rates)
    rates.add_argument("--scenario", required=True)
    rates.add_argument("--levels", type=int, default=7, help="number of dyadic step levels")
    rates.add_argument("--h0", type=float, default=2.0**-4, help="coarsest step")
    rates.add_argument(
        "--reference", choices=("auto", "analytic", "finest"), default="auto"
    )
    rates.add_argument("--out", default=None, help="JSON report path (default: stdout)")
    rates.add_argument("--data", default=None, help="optional gnuplot-style 'h error' file")
    rates.add_argument("--strict", action="store_true")

    diag = sub.add_parser("diagnose", help="regularity diagnostics near x0")
    diag.set_defaults(run=_cmd_diagnose)
    diag.add_argument("--scenario", required=True)
    diag.add_argument("--radius", type=float, default=None, help="probe region radius")
    diag.add_argument("--samples", type=int, default=400)
    diag.add_argument("--out", default=None, help="JSON report path (default: stdout)")
    diag.add_argument("--strict", action="store_true")

    cert = sub.add_parser("certify", help="run and certify a scenario")
    cert.set_defaults(run=_cmd_certify)
    cert.add_argument("--scenario", required=True)
    cert.add_argument("--h", type=float, default=None)
    cert.add_argument("--out", default=None, help="JSON report path (default: stdout)")
    cert.add_argument("--strict", action="store_true")

    val = sub.add_parser("validate", help="validate a scenario file")
    val.set_defaults(run=_cmd_validate)
    val.add_argument("--scenario", required=True)
    val.add_argument("--echo", action="store_true", help="print the normalized document")
    return p


def _emit(doc: str, path):
    if path is None:
        sys.stdout.write(doc)
    else:
        with open(path, "w") as fh:
            fh.write(doc)


def _cmd_simulate(args):
    scn = load_scenario(args.scenario)
    traj = catching_up(scn, args.h)
    meta = args.metadata or (args.out + ".meta.json")
    traj.to_csv(args.out, metadata_path=meta)
    for w in traj.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return "pass" if traj.certified else "warn"


def _cmd_rates(args):
    scn = load_scenario(args.scenario)
    steps = [args.h0 * 2.0**-k for k in range(args.levels)]
    reference = args.reference
    if reference == "auto":
        reference = "analytic" if scn.analytic_solution() is not None else "finest"
    study = run_rate_study(scn, steps, reference=reference)
    _emit(dumps(study), args.out)
    if args.data is not None:
        _emit(study.gnuplot_data(), args.data)
    if args.out is not None:
        print(study.table())
    return "warn" if study.warnings else "pass"


def _cmd_diagnose(args):
    report = diagnose_scenario(load_scenario(args.scenario), args.radius, args.samples)
    _emit(dumps(report), args.out)
    return "warn" if report.warnings else "pass"


def _cmd_certify(args):
    scn = load_scenario(args.scenario)
    report = certify_scenario(scn, h=args.h)
    _emit(dumps(report), args.out)
    return report.status


def _cmd_validate(args):
    scn = load_scenario(args.scenario)
    if args.echo:
        sys.stdout.write(dumps(scn.document))
    else:
        print(f"ok: {scn.name} (hash {scn.hash[:16]})")
    return "pass"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        verdict = args.run(args)  # the command's verdict: "pass", "warn" or "fail"
    except (
        StructuralError, DomainError, NumericsError, ExpressionError, FileNotFoundError
    ) as err:
        if args.json_errors:
            doc = {
                "error": type(err).__name__,
                "message": str(err),
                "residual": getattr(err, "residual", None),
            }
            print(json.dumps(doc, sort_keys=True), file=sys.stderr)
        else:
            print(f"error: {err}", file=sys.stderr)
        return EXIT_FAIL
    if verdict == "fail":
        return EXIT_FAIL
    return EXIT_WARN if verdict == "warn" and args.strict else EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
