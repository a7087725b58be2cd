"""Command line front end.

All output is in units hbar = 2m = 1: eigenvalues are E = k^2, the
vacuum energy is zeta(-1/2)/2, and forces are energy per unit length.
"""

from __future__ import annotations

import argparse
import json
import sys

from .casimir import casimir_force, vacuum_energy
from .errors import GraphZetaError
from .graph import load_graph, validate_matching
from .oracle import scan_spectrum
from .zeta import zeta_total


def _cell(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, str)):
        return str(x)
    return format(float(x), ".17g")


def _emit(fmt: str, header, rows, out) -> None:
    if fmt == "json":
        print(json.dumps([dict(zip(header, row)) for row in rows], indent=2),
              file=out)
        return
    print(",".join(header), file=out)
    for row in rows:
        print(",".join(_cell(v) for v in row), file=out)


def run(args: argparse.Namespace, out=None, err=None) -> int:
    """Run one parsed command line; returns the exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr

    if args.command == "validate":
        graph, mc = load_graph(args.graph, validate=False)
        report = validate_matching(graph, mc)
        for line in report.lines():
            print(line, file=out)
        return 0 if report.passed else 2

    graph, mc = load_graph(args.graph)

    if args.command == "spectrum":
        window = scan_spectrum(graph, mc, args.k_max)
        rows = [(i, k, k * k, mult)
                for i, (k, mult) in enumerate(window.roots)]
        _emit(args.fmt, ("index", "k", "energy", "multiplicity"), rows, out)
        return 0

    if args.command == "zeta":
        kwargs = {"gamma": args.gamma}
        if args.tol is not None:
            kwargs["tol"] = args.tol
        ev = zeta_total(graph, mc, args.s, **kwargs)
        row = (ev.s.real, ev.s.imag, ev.gamma, ev.value.real, ev.value.imag,
               ev.quadrature_error)
        _emit(args.fmt, ("re_s", "im_s", "gamma", "re_value", "im_value",
                         "error_estimate"), [row], out)
        return 0

    if args.command == "energy":
        res = vacuum_energy(graph, mc, mu=args.mu)
        if res.ambiguous:
            print("warning: zeta has a pole at s = -1/2, so the vacuum "
                  "energy depends on the scale mu through the "
                  "res_half * ln(mu^2) term; res_half = "
                  f"{res.res_half:.6g}", file=err)
        row = (res.fp_half, res.res_half, res.mu, res.finite_energy_at_mu,
               res.ambiguous)
        _emit(args.fmt, ("fp_half", "res_half", "mu", "finite_energy_at_mu",
                         "ambiguous"), [row], out)
        return 0

    res = casimir_force(graph, mc, args.bond)
    row = (res.bond, res.force, res.dirichlet_part, res.interaction_part,
           res.error_estimate)
    _emit(args.fmt, ("bond", "force", "dirichlet_part", "interaction_part",
                     "error_estimate"), [row], out)
    return 0


def _parse_s(text: str) -> complex:
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise argparse.ArgumentTypeError("expected re or re,im")
    try:
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return complex(re, im)


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per command, each with only the options it reads."""
    graph_opt = argparse.ArgumentParser(add_help=False)
    graph_opt.add_argument("--graph", required=True, metavar="PATH")
    common = argparse.ArgumentParser(add_help=False, parents=[graph_opt])
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        dest="fmt")
    p = argparse.ArgumentParser(
        prog="graphzeta",
        description="Spectra, zeta functions and Casimir forces of "
                    "Schroedinger operators on metric graphs "
                    "(units hbar = 2m = 1).")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[graph_opt])
    spectrum = sub.add_parser("spectrum", parents=[common])
    spectrum.add_argument("--k-max", type=float, dest="k_max", required=True)
    zeta = sub.add_parser("zeta", parents=[common])
    zeta.add_argument("--s", type=_parse_s, metavar="RE[,IM]", required=True)
    zeta.add_argument("--gamma", type=float, default=0.0)
    zeta.add_argument("--tol", type=float)
    energy = sub.add_parser("energy", parents=[common])
    energy.add_argument("--mu", type=float, default=1.0)
    force = sub.add_parser("force", parents=[common])
    force.add_argument("--bond", metavar="ID", required=True)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except GraphZetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
