"""Command line front end.

All output is in units hbar = 2m = 1: eigenvalues are E = k^2, the
vacuum energy is zeta(-1/2)/2, and forces are energy per unit length.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .casimir import casimir_force, vacuum_energy
from .errors import GraphZetaError
from .graph import load_graph, validate_matching
from .oracle import scan_spectrum
from .zeta import zeta_total

COMMANDS = ("validate", "spectrum", "zeta", "energy", "force")


@dataclass
class RunConfig:
    command: str
    graph_path: str
    k_max: float = None
    s: complex = None
    gamma: float = 0.0
    mu: float = 1.0
    bond: str = None
    fmt: str = "csv"
    tol: float = None
    threads: int = 1


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


def run(config: RunConfig, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr

    if config.command == "validate":
        graph, mc = load_graph(config.graph_path, validate=False)
        report = validate_matching(graph, mc)
        for line in report.lines():
            print(line, file=out)
        return 0 if report.passed else 2

    graph, mc = load_graph(config.graph_path)

    if config.command == "spectrum":
        window = scan_spectrum(graph, mc, config.k_max, threads=config.threads)
        rows = [(i, k, k * k, mult)
                for i, (k, mult) in enumerate(window.roots)]
        _emit(config.fmt, ("index", "k", "energy", "multiplicity"), rows, out)
        return 0

    if config.command == "zeta":
        kwargs = {"gamma": config.gamma}
        if config.tol is not None:
            kwargs["tol"] = config.tol
        ev = zeta_total(graph, mc, config.s, **kwargs)
        row = (ev.s.real, ev.s.imag, ev.gamma, ev.value.real, ev.value.imag,
               ev.quadrature_error)
        _emit(config.fmt, ("re_s", "im_s", "gamma", "re_value", "im_value",
                           "error_estimate"), [row], out)
        return 0

    if config.command == "energy":
        res = vacuum_energy(graph, mc, mu=config.mu)
        if res.ambiguous:
            print("warning: zeta has a pole at s = -1/2, so the vacuum "
                  "energy depends on the scale mu through the "
                  "res_half * ln(mu^2) term; res_half = "
                  f"{res.res_half:.6g}", file=err)
        row = (res.fp_half, res.res_half, res.mu, res.finite_energy_at_mu,
               res.ambiguous)
        _emit(config.fmt, ("fp_half", "res_half", "mu", "finite_energy_at_mu",
                           "ambiguous"), [row], out)
        return 0

    res = casimir_force(graph, mc, config.bond)
    row = (res.bond, res.force, res.dirichlet_part, res.interaction_part,
           res.error_estimate)
    _emit(config.fmt, ("bond", "force", "dirichlet_part", "interaction_part",
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
    p = argparse.ArgumentParser(
        prog="graphzeta",
        description="Spectra, zeta functions and Casimir forces of "
                    "Schroedinger operators on metric graphs "
                    "(units hbar = 2m = 1).")
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--graph", required=True, metavar="PATH")
    p.add_argument("--k-max", type=float, dest="k_max")
    p.add_argument("--s", type=_parse_s, metavar="RE[,IM]")
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--bond", metavar="ID")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   dest="fmt")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--tol", type=float)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "spectrum" and args.k_max is None:
        parser.error("spectrum needs --k-max")
    if args.command == "zeta" and args.s is None:
        parser.error("zeta needs --s")
    if args.command == "force" and args.bond is None:
        parser.error("force needs --bond")
    config = RunConfig(command=args.command, graph_path=args.graph,
                       k_max=args.k_max, s=args.s, gamma=args.gamma,
                       mu=args.mu, bond=args.bond, fmt=args.fmt,
                       tol=args.tol, threads=args.threads)
    try:
        return run(config)
    except GraphZetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
