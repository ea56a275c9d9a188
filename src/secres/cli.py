"""Command-line front end: validate models, run the pipeline, emit CSV/JSON.

The library returns plain roots and the records are built here: an EP
record's modulus, and an order-K record's residual, come from its root and
discriminant at output time, its multiplicity is the size of its symmetry
group, and its source is "exact" or "order-K"; table1 prints the moduli
alone.  The series and the secular polynomial are built once, at a
command's top order, and each order's is a prefix.  A sweep's exact column
is one batched eigvalsh of H(lambda) and each order's column one batch root
solve, returned as sorted rows; ep and table1 solve all their order-K
discriminants in one root solve, and take the exact EPs from one eigvals of
a companion matrix, whose nearest must pass the GAP_BOUND check.
Every column, lambda included, goes through one formatter as one block of
cells: a value shows its imaginary part when it exceeds
IMAG_REPORT_THRESHOLD times the largest |z| in its row of the block,
whatever the energy unit, so a real column never shows one.

Each command is a function of the loaded model and its arguments that
returns its text.  main alone loads the model, writes the text and a final
newline to stdout or to the --out file (the same bytes either way), and
maps exceptions to exit codes: 0 success, 1 I/O failure, 2 the input is
at fault (every ValueError: a bad model or argument, or a model where no
exceptional point can exist), 3 numerical failure (any other SecresError:
root finding, or an internal invariant such as a non-finite coefficient).
All output is deterministic for a fixed input and platform, and platform
includes numpy's SIMD dispatch (np.log and np.exp in the root finder's
starts) and the OpenBLAS kernel under LAPACK (the sweep's eigvalsh, the
exact EPs' eigvals): no randomness, fixed iteration orders, fixed sorting
conventions.  Floats in JSON
reports are emitted as shortest-round-trip decimal strings so that no
reader rounds them; CSV cells use 17-significant-digit scientific notation.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import suppress
from dataclasses import dataclass
from functools import cache
from importlib import resources
from math import isfinite
from pathlib import Path

import numpy as np

from .charpoly import (characteristic_polynomial, eigenvalue_gap, exact_eigenvalues_at,
                       exact_exceptional_points)
from .discriminant import discriminant, exceptional_points, nearest_exceptional_point
from .errors import InvariantViolation, SecresError
from .model import MatrixModel, _number, load_model
from .rspt import p_space_series
from .secular import eigenvalues_at, reconstruct
from .series import MonicPolynomial, Polynomial

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

IMAG_REPORT_THRESHOLD = 1e-10
GAP_BOUND = 1e-3  # the largest eigenvalue gap at the exact nearest point
TABLE1_ORDERS = (2, 4, 6, 8, 10)


def _json_float(x: float) -> str:
    """Shortest decimal string that round-trips to the same double."""
    return repr(float(x))


def _block_rows(values: np.ndarray) -> list[str]:
    """Each row of a real or complex block as CSV cells: each cell is the
    real part in 17-significant-digit scientific notation, followed by the
    imaginary part where |Im z| > IMAG_REPORT_THRESHOLD times the largest
    |z| of its row (never, in a real block).  The choice does not depend on
    the energy unit, and rounding noise on a root at or near zero is judged
    against the row's scale, not against its own size."""
    scale = np.abs(values).max(axis=1, keepdims=True)
    shown = np.abs(values.imag) > IMAG_REPORT_THRESHOLD * scale
    imag = values.imag[shown].tolist()
    rows, width = values.shape
    args = np.full((rows, 2 * width), "", dtype=object)
    args[:, 0::2] = values.real
    args[:, 1::2][shown] = ("%+.16ej\n" * len(imag) % tuple(imag)).split("\n")[:-1]
    line = ",".join(["%.16e%s"] * width)
    # one %-format call per row: formatting the block as one text and
    # splitting it left the heap ~0.6 MB larger after a few hundred sweeps
    return [line % tuple(row) for row in args.tolist()]


@dataclass(frozen=True)
class SweepSpec:
    """Real coupling grid and the reconstruction orders to evaluate on it."""

    lambda_min: float
    lambda_max: float
    steps: int
    orders: tuple[int, ...]

    def __post_init__(self):
        if not self.lambda_min < self.lambda_max:
            raise ValueError(
                f"lambda_min ({self.lambda_min}) must be below "
                f"lambda_max ({self.lambda_max})"
            )
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        # bounds the grid formula's largest product, so every point is finite
        if not isfinite((self.lambda_max - self.lambda_min) * (self.steps - 1)):
            raise ValueError(
                f"no finite grid from lambda_min ({self.lambda_min}) to "
                f"lambda_max ({self.lambda_max}) in {self.steps} steps"
            )


def bundled_model_path() -> Path:
    """Path of the tridiagonal 3x3 fixture shipped with the package."""
    return Path(str(resources.files("secres").joinpath("data/zheng3.json")))


def integer(text: str) -> int:
    """An integer flag's value, read as a model file reads an integer: a
    JSON number, so ASCII digits with an optional minus and no leading zero,
    '+', '_' or exponent.  Anything else raises a ValueError."""
    try:
        return _number(json.loads(text), "integer", int)
    except RecursionError:  # a thousand '[' exhaust the JSON decoder
        raise ValueError(f"{text!r} nests too deeply") from None


def _parse_orders(text: str) -> tuple[int, ...]:
    """Distinct orders from a comma-separated --orders value, each read by
    integer(); a blank value gives none.  Anything else raises a ValueError
    quoting the text."""
    if not text.strip():
        return ()
    try:
        orders = tuple(integer(part) for part in text.split(","))
    except ValueError:
        raise ValueError(
            f"--orders takes comma-separated integers, got {text!r}") from None
    if len(set(orders)) < len(orders):
        raise ValueError(f"--orders repeats an order in {text!r}")
    return orders


def _secular_polynomials(model: MatrixModel, orders: tuple[int, ...]):
    """Each order's secular polynomial: its p_j are the first k+1 coefficients
    of the top order's, bit for bit, as truncation sits inside every product.
    A negative order, or an overflow at the top, builds each order alone as
    it is asked for, so every error comes where one order at a time put it."""
    if orders and min(orders) >= 0:
        with suppress(InvariantViolation):
            top = reconstruct(p_space_series(model, max(orders))).coefficients
            return [MonicPolynomial(tuple(Polynomial(p.coefficients[:k + 1])
                                          for p in top)) for k in orders]
    return (reconstruct(p_space_series(model, k)) for k in orders)


def sweep_csv_lines(model: MatrixModel, spec: SweepSpec) -> list[str]:
    """CSV of exact and resummed eigenvalues on the coupling grid.

    Each column (exact, then each order) is solved over the whole grid at
    once and formatted as one block of cells.  A failure at one coupling
    marks its row instead of aborting the sweep: that column's cells and the
    later ones read nan and the message goes in the error column."""
    polys = list(_secular_polynomials(model, spec.orders))
    header = ["lambda"]
    header += [f"exact_{i}" for i in range(1, model.dimension + 1)]
    for k in spec.orders:
        header += [f"eff_K{k}_{i}" for i in range(1, len(model.p_space) + 1)]
    header.append("error")
    width = spec.lambda_max - spec.lambda_min
    lams = [spec.lambda_min + width * index / (spec.steps - 1)
            for index in range(spec.steps)]
    columns = [exact_eigenvalues_at(model, lams)]
    columns += [eigenvalues_at(poly, lams) for poly in polys]
    errors: dict[int, str] = {}  # row -> message of its first failing column
    parts = [_block_rows(np.array(lams)[:, None])]
    for values, failures in columns:
        rows = _block_rows(values)
        for index, message in failures.items():
            errors.setdefault(index, message.replace(",", ";"))
        for index in errors:
            rows[index] = ",".join(["nan"] * values.shape[1])
        parts.append(rows)
    parts.append([errors.get(index, "") for index in range(len(lams))])
    return [",".join(header)] + [",".join(row) for row in zip(*parts)]


def _exceptional_points(model: MatrixModel, orders: tuple[int, ...], include_exact: bool):
    """The exact exceptional points and their nearest's eigenvalue gap, if
    asked for, then each order's discriminant and the exceptional points of
    all from one exceptional_points call.  If a build raises, the ones built
    before it are solved first, and the first of them to fail raises instead,
    as if each were solved before the next was built.  DegreeTooSmall, a
    ValueError, means no two eigenvalues meet."""
    exact = None
    if include_exact:
        groups = exact_exceptional_points(model)
        nearest = nearest_exceptional_point(groups)
        gap = eigenvalue_gap(model, nearest)
        if not gap <= GAP_BOUND:  # a NaN gap fails too
            raise InvariantViolation(f"exact exceptional point {nearest!r} fails its "
                                     f"check: eigenvalue gap {gap:.3e} > {GAP_BOUND:g}")
        exact = groups, gap
    discs: list[Polynomial] = []
    try:
        for poly in _secular_polynomials(model, orders):
            discs.append(discriminant(poly))
    except Exception:
        exceptional_points(discs)
        raise
    return exact, discs, exceptional_points(discs)


def _ep_block(groups: list[list[complex]], source: str, disc=None, gap=None) -> dict:
    points = [{"re": _json_float(z.real), "im": _json_float(z.imag),
               "modulus": _json_float(abs(z)), "source": source,
               **({} if disc is None else {"residual": _json_float(abs(disc.evaluate(z)))})}
              for group in groups for z in group]
    nearest = nearest_exceptional_point(groups)
    # groups[0] leads the points, and nearest is one of its members
    block = points[[z is nearest for z in groups[0]].index(True)]
    return {
        "nearest": {**block, "multiplicity": len(groups[0]),
                    **({} if gap is None else {"gap": _json_float(gap)})},
        "nearest_modulus": block["modulus"],
        "points": points,
    }


def ep_report(model: MatrixModel, orders: tuple[int, ...], include_exact: bool) -> dict:
    """Exceptional points per reconstruction order, with the exact reference;
    only order-K points have a discriminant, so only they carry a residual."""
    exact, discs, groups = _exceptional_points(model, orders, include_exact)
    report: dict = {"orders": [{"order": k, **_ep_block(g, f"order-{k}", disc)}
                               for k, disc, g in zip(orders, discs, groups)]}
    if exact:
        report["exact"] = _ep_block(exact[0], "exact", gap=exact[1])
    return report


def cmd_validate(model: MatrixModel, args: argparse.Namespace) -> str:
    return "OK"


def cmd_series(model: MatrixModel, args: argparse.Namespace) -> str:
    lines = []
    for state, series in zip(model.p_space, p_space_series(model, args.order)):
        lines.append(f"state {state}")
        for power, c in enumerate(series.coefficients):
            lines.append(f"  order {power:>3d}  {c:.16e}")
    return "\n".join(lines)


def cmd_charpoly(model: MatrixModel, args: argparse.Namespace) -> str:
    """p_j(lambda) = c0 + c1*lambda + c2*lambda^2 + ..., one line per j; 17
    significant digits round-trip to the doubles."""
    lines = []
    for j, poly in enumerate(characteristic_polynomial(model).coefficients, start=1):
        # +0.0 folds -0.0 into 0
        terms = [f"{c + 0.0:.17g}"
                 + ("" if k == 0 else "*lambda" if k == 1 else f"*lambda^{k}")
                 for k, c in enumerate(poly.coefficients)]
        lines.append(f"p_{j}(lambda) = {' + '.join(terms)}")
    return "\n".join(lines)


def cmd_reconstruct(model: MatrixModel, args: argparse.Namespace) -> str:
    poly = reconstruct(p_space_series(model, args.order))
    return json.dumps({
        "degree": poly.degree,
        "order": max(p.degree for p in poly.coefficients),
        "coefficients": [list(p.coefficients) for p in poly.coefficients],
    }, indent=2)


def cmd_sweep(model: MatrixModel, args: argparse.Namespace) -> str:
    spec = SweepSpec(args.lambda_min, args.lambda_max, args.steps,
                     _parse_orders(args.orders))
    return "\n".join(sweep_csv_lines(model, spec))


def cmd_ep(model: MatrixModel, args: argparse.Namespace) -> str:
    report = ep_report(model, _parse_orders(args.orders), args.exact)
    return json.dumps(report, indent=2)


def cmd_table1(model: MatrixModel, args: argparse.Namespace) -> str:
    (exact, _), _, groups = _exceptional_points(model, TABLE1_ORDERS, True)
    # ep's nearest_modulus of each block, the exact one first
    exact, *moduli = [_json_float(abs(nearest_exceptional_point(g))) for g in [exact, *groups]]
    rows = [f"{k:<6d} {modulus}" for k, modulus in zip(TABLE1_ORDERS, moduli)]
    return "\n".join(["K      nearest-EP modulus", *rows, f"exact  {exact}"])


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: main runs many
    commands in one process when a caller drives it in a loop."""
    parser = argparse.ArgumentParser(
        prog="secres",
        description=(
            "Resum matrix perturbation series through the truncated secular "
            "polynomial and locate exceptional points in the complex "
            "coupling plane."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model(p):
        p.add_argument("--model", required=True, help="model JSON file")

    def add_out(p):
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("validate", help="check a model file")
    add_model(p)
    p.set_defaults(handler=cmd_validate, out=None)

    p = sub.add_parser("series", help="print per-state energy series")
    add_model(p)
    p.add_argument("--order", type=integer, required=True, help="truncation order K")
    add_out(p)
    p.set_defaults(handler=cmd_series)

    p = sub.add_parser("charpoly", help="print the exact characteristic polynomial")
    add_model(p)
    add_out(p)
    p.set_defaults(handler=cmd_charpoly)

    p = sub.add_parser("reconstruct", help="emit the truncated secular polynomial")
    add_model(p)
    p.add_argument("--order", type=integer, required=True, help="truncation order K")
    add_out(p)
    p.set_defaults(handler=cmd_reconstruct)

    p = sub.add_parser("sweep", help="CSV of exact vs resummed eigenvalues")
    add_model(p)
    p.add_argument("--orders", default="6", help="comma-separated orders K")
    p.add_argument("--lambda-min", type=float, default=0.0)
    p.add_argument("--lambda-max", type=float, default=0.5)
    p.add_argument("--steps", type=integer, default=101)
    add_out(p)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("ep", help="JSON report of exceptional points")
    add_model(p)
    p.add_argument("--orders", default="", help="comma-separated orders K")
    p.add_argument("--exact", action="store_true",
                   help="include the exact reference, every EP of H(lambda) itself")
    add_out(p)
    p.set_defaults(handler=cmd_ep)

    p = sub.add_parser(
        "table1",
        help="nearest-EP modulus for K=2,4,6,8,10 plus exact, bundled fixture",
    )
    p.add_argument("--model", default=bundled_model_path(),
                   help="override the bundled fixture")
    add_out(p)
    p.set_defaults(handler=cmd_table1)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = args.handler(load_model(args.model), args) + "\n"
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
    except ValueError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SecresError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
