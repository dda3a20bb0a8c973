"""Command-line front end: one verb per module capability.

Subcommands: exact1d, exact2d, chessboard, sample, sticks, phase,
components, coupling, render. All reports are JSON (tail tables also as
CSV); every artifact embeds the resolved parameters and seed. Errors
exit nonzero with a machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional

from . import exact, graphs, lattice, render, sticks
from .coupling import radius_tail_experiment
from .errors import IoError, ParameterError, SpecError, SquarepackError, UsageError
from .errors import check_fugacity
from .sampler import OBSERVABLES, ChainParams, run_chain


def _finite(value):
    """The payload with each non-finite float, an undefined statistic
    such as the stderr of a single batch, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _emit(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(_finite(payload), indent=2, default=str, allow_nan=False)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise IoError(f"cannot write {out}: {exc}") from exc
    else:
        print(text)


def _read_config(path: str) -> lattice.Configuration:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if text.lstrip().startswith("{"):
        return lattice.from_json(text)
    return lattice.decode(text)


class _Parser(argparse.ArgumentParser):
    """An argument parser, and so every subcommand's, whose parse errors
    raise UsageError, reported as JSON like every other error, instead of
    printing the usage and exiting 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _add_common(p: argparse.ArgumentParser, *names) -> None:
    if "lambda" in names:
        p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    if "dims" in names:
        p.add_argument("--width", type=int, required=True)
        p.add_argument("--height", type=int, required=True)
    if "boundary" in names:
        p.add_argument("--boundary", choices=lattice.BOUNDARIES, default="periodic")
    if "seed" in names:
        p.add_argument("--seed", type=int, default=0)
    if "out" in names:
        p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="squarepack",
        description="2x2 hard-square model: exact computation and Monte Carlo",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact1d", help="periodic/free 1D partition values")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--free", action="store_true", help="free boundary instead of periodic")
    p.add_argument("--out", default=None)

    p = sub.add_parser("exact2d", help="exact partition polynomial of a region")
    _add_common(p, "dims", "boundary", "out")
    p.add_argument("--lambda", dest="lambdas", type=float, action="append", default=[])
    p.add_argument("--method", choices=("transfer", "brute"), default="transfer")

    p = sub.add_parser("chessboard", help="chessboard seminorm of a face-vacancy event")
    _add_common(p, "dims", "lambda", "out")
    p.add_argument("--face-x", type=int, default=0)
    p.add_argument("--face-y", type=int, default=0)

    p = sub.add_parser("sample", help="run a Monte Carlo chain")
    p.add_argument("--spec", default=None, help="JSON experiment spec file")
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--boundary", choices=lattice.BOUNDARIES, default="periodic")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sweeps", type=int, default=1000)
    p.add_argument("--burn-in", dest="burn_in", type=int, default=0)
    p.add_argument("--thinning", type=int, default=1)
    p.add_argument("--initial", default=None)
    p.add_argument("--observables", nargs="*", default=["tile_density"])
    p.add_argument("--keep-samples", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("sticks", help="stick census and Psi sets of a configuration")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--psi", nargs=3, metavar=("K", "L", "TYPE"), default=None)
    p.add_argument("--N", dest="n_div", type=int, default=sticks.DEFAULT_N)
    p.add_argument("--out", default=None)

    p = sub.add_parser("phase", help="classify the phase of a configuration")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--N", dest="n_div", type=int, default=sticks.DEFAULT_N)
    p.add_argument("--out", default=None)

    p = sub.add_parser("components", help="enumerate window components, verify bounds")
    _add_common(p, "dims", "out")
    p.add_argument("--M", dest="m_values", type=int, action="append", default=[])
    p.add_argument("--lambda", dest="lambdas", type=float, action="append", default=[])

    p = sub.add_parser("coupling", help="disagreement cluster tail experiment")
    _add_common(p, "dims", "lambda", "out")
    p.add_argument("--seed", type=int, default=0, help="base seed; pair uses seed, seed+1")
    p.add_argument("--sweeps", type=int, default=2000)
    p.add_argument("--burn-in", dest="burn_in", type=int, default=500)
    p.add_argument("--thinning", type=int, default=10)
    p.add_argument("--phase", default="ver0")
    p.add_argument("--csv", default=None, help="also write the tail table CSV here")

    p = sub.add_parser("render", help="render a configuration to SVG or PPM")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--style", choices=("svg", "ppm"), default="svg")
    p.add_argument("--cell", type=int, default=None)
    p.add_argument("--no-sticks", action="store_true")

    return parser


def _cmd_exact1d(args) -> int:
    value = (
        exact.z1d_free(args.L, args.lam)
        if args.free
        else exact.z1d_periodic(args.L, args.lam)
    )
    if args.out:
        _emit(
            {
                "spec": {"L": args.L, "lambda": args.lam, "free": args.free},
                "value": value,
            },
            args.out,
        )
    else:
        print(f"{value:.12g}")
    return 0


def _cmd_exact2d(args) -> int:
    for lam in args.lambdas:
        check_fugacity(lam)
    poly = exact.partition_polynomial(args.width, args.height, args.boundary, method=args.method)
    report = poly.report(args.lambdas or [1.0])
    report["spec"] = {
        "width": args.width,
        "height": args.height,
        "boundary": args.boundary,
        "method": args.method,
    }
    _emit(report, args.out)
    return 0


def _cmd_chessboard(args) -> int:
    corner, k, l, event = exact.face_vacant_event((args.face_x, args.face_y))
    query = exact.SeminormQuery(args.width, args.height, corner, k, l, event)
    zeta = exact.chessboard_seminorm(query, args.lam)
    _emit(
        {
            "spec": {
                "width": args.width,
                "height": args.height,
                "lambda": args.lam,
                "event": f"face ({args.face_x},{args.face_y}) vacant",
            },
            "zeta": zeta,
            "upper_bound_lambda^-1/4": args.lam ** -0.25,
            "bound_holds": zeta <= args.lam ** -0.25 + 1e-12,
        },
        args.out,
    )
    return 0


def _load_sample_spec(path: str) -> dict:
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read spec {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"malformed spec {path}: {exc}") from exc
    if not isinstance(spec, dict):
        raise SpecError(f"spec {path} is not a JSON object")
    required = {"width", "height", "lambda", "seed", "sweeps"}
    optional = {"boundary", "burn_in", "thinning", "translation_move_fraction"}
    optional |= {"initial", "observables", "keep_samples"}
    missing = required - spec.keys()
    if missing:
        raise SpecError(f"spec missing fields: {sorted(missing)}")
    unknown = spec.keys() - required - optional
    if unknown:
        raise SpecError(f"spec has unknown fields: {sorted(unknown)}")
    return spec


def _cmd_sample(args) -> int:
    # the flags give the spec's fields, and each spec field but three is
    # the ChainParams field of its name
    if args.spec:
        spec = _load_sample_spec(args.spec)
    elif args.width is None or args.height is None:
        raise SpecError("sample needs --spec or --width/--height")
    else:
        spec = {"lambda": args.lam, "observables": args.observables, "keep_samples": args.keep_samples}
        for name in ("width", "height", "seed", "sweeps", "boundary", "burn_in", "thinning", "initial"):
            spec[name] = getattr(args, name)
    names = spec.pop("observables", ["tile_density"])
    keep = spec.pop("keep_samples", False)
    params = ChainParams(lam=spec.pop("lambda"), **spec)
    unknown = [n for n in names if n not in OBSERVABLES]
    if unknown:
        raise SpecError(f"unknown observables: {unknown}")
    report = run_chain(params, names, keep_samples=keep)
    _emit(report.to_dict(), args.out)
    return 0


def _cmd_sticks(args) -> int:
    sticks.check_n(args.n_div)
    cfg = _read_config(args.infile)
    stick_list = sticks.extract_sticks(cfg)
    payload = {
        "spec": {"input": args.infile, "dims": [cfg.width, cfg.height], "N": args.n_div},
        "census": sticks.stick_census(cfg),
        "total_sticks": len(stick_list),
    }
    if args.psi:
        try:
            k, l = int(args.psi[0]), int(args.psi[1])
        except ValueError:
            message = f"--psi K L TYPE needs integers K and L, got {args.psi[:2]}"
            raise ParameterError(message) from None
        stype = args.psi[2]
        psi = sticks.psi_set(cfg, k, l, stype, args.n_div, stick_list)
        nx = (cfg.width - args.n_div * k) // k + 1
        ny = (cfg.height - args.n_div * l) // l + 1
        bitmap = [
            "".join("1" if (x, y) in psi else "0" for x in range(nx))
            for y in reversed(range(ny))
        ]
        payload["psi"] = {"K": k, "L": l, "type": stype, "points": sorted(psi), "bitmap": bitmap}
    _emit(payload, args.out)
    return 0


def _cmd_phase(args) -> int:
    cfg = _read_config(args.infile)
    label = sticks.classify_phase(cfg, b=args.b, lam=args.lam, n=args.n_div)
    _emit(
        {
            "spec": {
                "input": args.infile,
                "lambda": args.lam,
                "b": args.b,
                "N": args.n_div,
                "threshold_note": "b defaults from lambda; calibration choice",
            },
            "phase": label,
        },
        args.out,
    )
    return 0


def _cmd_components(args) -> int:
    m_values = args.m_values or [1, 2, 3]
    lambdas = args.lambdas or [100.0, 1e4]
    graphs.check_bound_grid(m_values, lambdas)  # before the harvest, which can be long
    catalog = graphs.enumerate_components(args.width, args.height)
    report = graphs.verify_counting_bounds(catalog, m_values, lambdas)
    report["spec"] = {
        "width": args.width,
        "height": args.height,
        "M": m_values,
        "lambda": lambdas,
        "boundary": "fully_packed",
    }
    report["catalog_size"] = len(catalog)
    _emit(report, args.out)
    return 0


def _cmd_coupling(args) -> int:
    template = ChainParams(
        width=args.width,
        height=args.height,
        lam=args.lam,
        seed=args.seed,
        sweeps=args.sweeps,
        burn_in=args.burn_in,
        thinning=args.thinning,
        initial=args.phase,
    )
    report = radius_tail_experiment(template, (args.seed, args.seed + 1), phase=args.phase)
    if args.csv:
        try:
            with open(args.csv, "w") as fh:
                fh.write(report.to_csv())
        except OSError as exc:
            raise IoError(f"cannot write {args.csv}: {exc}") from exc
    _emit(
        {
            "spec": report.params,
            "pairs_used": report.pairs_used,
            "pairs_skipped": report.pairs_skipped,
            "fits": report.fits,
            "tail_preview": report.tail_rows()[:12],
        },
        args.out,
    )
    return 0


def _cmd_render(args) -> int:
    cfg = _read_config(args.infile)
    render.render_image(
        cfg,
        args.out,
        style=args.style,
        cell=args.cell,
        stick_overlay=not args.no_sticks,
    )
    return 0


_COMMANDS = {
    "exact1d": _cmd_exact1d,
    "exact2d": _cmd_exact2d,
    "chessboard": _cmd_chessboard,
    "sample": _cmd_sample,
    "sticks": _cmd_sticks,
    "phase": _cmd_phase,
    "components": _cmd_components,
    "coupling": _cmd_coupling,
    "render": _cmd_render,
}


def main(argv: Optional[list] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except BrokenPipeError as exc:
        # the reader closed stdout early (e.g. `| head`); point stdout at
        # devnull so the interpreter's final flush does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        error = exc
    except (SquarepackError, ValueError) as exc:
        error = exc
    payload = {"error": {"type": type(error).__name__, "message": str(error)}}
    print(json.dumps(payload), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
