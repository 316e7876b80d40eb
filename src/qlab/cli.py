"""Command line front end.

Every subcommand reads arrangement (.ea) or state (.qs) files, prints a
line-oriented key=value report to stdout (or one JSON object with --json),
and exits 0 on success. Failures exit with the category of the error:
2 parse, 3 validation, 4 dimension, 5 numeric. All randomness is seeded, so
identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

import numpy as np

from .arrangement import (
    SAMPLER_ALGORITHM,
    sample_outcomes,
    validate_isa,
)
from .entanglement import (
    Bipartition,
    is_fully_separable_pure,
    is_product_across,
    schmidt_decompose,
)
from .errors import DimensionError, ParseError, QLabError
from .fileio import read_arrangement, read_state, write_arrangement
from .screens import ScreenConfiguration
from .transforms import (
    BasisTransformation,
    change_basis,
    extend_arrangement,
    refactorize,
    remove_screen,
    verify_basis_invariance,
    verify_factorization_invariance,
)
from .viz import RenderOptions, depicted_powers, render_arrangement_svg

EXIT_OK = 0
EXIT_VALIDATION = 3


class Report:
    """Ordered key/value collector with two output styles."""

    def __init__(self, command: str) -> None:
        self.items: list[tuple[str, object]] = [("command", command)]

    def add(self, key: str, value: object) -> None:
        self.items.append((key, value))

    @staticmethod
    def _text(value: object) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return f"{value:.17g}"
        return str(value)

    def emit(self, json_mode: bool) -> None:
        if json_mode:
            import json

            payload = {k: v for k, v in self.items}
            print(json.dumps(payload, indent=2))
        else:
            for key, value in self.items:
                print(f"{key}={self._text(value)}")


def _index_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _count(text: str) -> int:
    value, limit = _positive_int(text), np.iinfo(np.int64).max
    if value > limit:
        raise argparse.ArgumentTypeError(f"expected a count of at most {limit}, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return value


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a value in [0, 1], got {text!r}")
    return value


def _shape_key(shape: ScreenConfiguration) -> str:
    return ",".join(map(str, shape.detector_counts))


def _index_key(index: Sequence[int]) -> str:
    return ",".join(map(str, index))


def cmd_validate(args: argparse.Namespace) -> int:
    ea = read_arrangement(args.input, validate=False)
    report = Report("validate")
    report.add("input", args.input)
    report.add("factorization", _shape_key(ea.shape))
    report.add("degree", ea.dimension)
    result = validate_isa(ea)
    for check in result.checks:
        report.add(f"check[{check.name}].passed", check.passed)
        report.add(f"check[{check.name}].residual", check.residual)
    report.add("valid", result.valid)
    report.emit(args.json)
    return EXIT_OK if result.valid else EXIT_VALIDATION


def cmd_potentia(args: argparse.Namespace) -> int:
    ea = read_arrangement(args.input)
    report = Report("potentia")
    report.add("input", args.input)
    report.add("factorization", _shape_key(ea.shape))
    report.add("degree", ea.dimension)
    if args.power is not None:
        value = ea.potentia(args.power)
        report.add(f"potentia[{_index_key(args.power)}]", value)
    else:
        table = ea.potentia_table()
        for flat, value in enumerate(table):
            if value >= args.min_potentia:
                report.add(f"potentia[{_index_key(ea.shape.multi_index(flat))}]", float(value))
    report.emit(args.json)
    return EXIT_OK


def cmd_change_basis(args: argparse.Namespace) -> int:
    ea = read_arrangement(args.input)
    if args.permute_screens is not None:
        bt = BasisTransformation.screen_permutation(ea.shape, args.permute_screens)
        mode = "permutation"
    elif args.random_unitary:
        target = ScreenConfiguration(args.target_shape) if args.target_shape else None
        bt = BasisTransformation.random(ea.shape, args.seed, target)
        mode = "random-unitary"
    else:
        raise ParseError("change-basis needs --random-unitary or --permute-screens")
    moved = change_basis(ea, bt)
    write_arrangement(args.out, moved)
    report = Report("change-basis")
    report.add("input", args.input)
    report.add("output", args.out)
    report.add("mode", mode)
    if mode == "random-unitary":
        report.add("seed", args.seed)
    report.add("source_factorization", _shape_key(bt.source_shape))
    report.add("target_factorization", _shape_key(bt.target_shape))
    report.emit(args.json)
    return EXIT_OK


def cmd_refactor(args: argparse.Namespace) -> int:
    ea = read_arrangement(args.input)
    reshaped = refactorize(ea, ScreenConfiguration(args.shape))
    write_arrangement(args.out, reshaped)
    report = Report("refactor")
    report.add("input", args.input)
    report.add("output", args.out)
    report.add("source_factorization", _shape_key(ea.shape))
    report.add("target_factorization", _shape_key(reshaped.shape))
    report.emit(args.json)
    return EXIT_OK


def cmd_remove_screen(args: argparse.Namespace) -> int:
    ea = read_arrangement(args.input)
    reduced = remove_screen(ea, args.screen)
    write_arrangement(args.out, reduced)
    report = Report("remove-screen")
    report.add("input", args.input)
    report.add("output", args.out)
    report.add("screen", args.screen)
    report.add("source_factorization", _shape_key(ea.shape))
    report.add("target_factorization", _shape_key(reduced.shape))
    report.emit(args.json)
    return EXIT_OK


def cmd_extend(args: argparse.Namespace) -> int:
    ea = read_arrangement(args.input)
    if args.ancilla_state is not None:
        phi, state_shape, _ = read_state(args.ancilla_state)
        if state_shape.detector_counts != (args.ancilla_dim,):
            raise DimensionError(
                f"ancilla state file has factorization {state_shape}, expected [{args.ancilla_dim}]"
            )
        ancilla = "file:" + args.ancilla_state
    else:
        if not 1 <= args.ancilla_basis <= args.ancilla_dim:
            raise DimensionError(
                f"ancilla basis index {args.ancilla_basis} out of range 1..{args.ancilla_dim}"
            )
        phi = np.zeros(args.ancilla_dim, dtype=np.complex128)
        phi[args.ancilla_basis - 1] = 1.0
        ancilla = f"basis:{args.ancilla_basis}"
    extended = extend_arrangement(ea, args.ancilla_dim, phi)
    write_arrangement(args.out, extended)
    report = Report("extend")
    report.add("input", args.input)
    report.add("output", args.out)
    report.add("ancilla_dim", args.ancilla_dim)
    report.add("ancilla", ancilla)
    report.add("source_factorization", _shape_key(ea.shape))
    report.add("target_factorization", _shape_key(extended.shape))
    report.emit(args.json)
    return EXIT_OK


def cmd_schmidt(args: argparse.Namespace) -> int:
    v, shape, _ = read_state(args.state)
    cut = Bipartition.split(args.left, shape.num_screens)
    result = schmidt_decompose(v, shape, cut)
    report = Report("schmidt")
    report.add("state", args.state)
    report.add("factorization", _shape_key(shape))
    report.add("cut", str(cut))
    report.add("rank", result.rank)
    for i, c in enumerate(result.coefficients):
        report.add(f"coefficient[{i}]", float(c))
    report.emit(args.json)
    return EXIT_OK


def cmd_separability(args: argparse.Namespace) -> int:
    v, shape, _ = read_state(args.state)
    flag, factors = is_fully_separable_pure(v, shape)
    report = Report("separability")
    report.add("state", args.state)
    report.add("factorization", _shape_key(shape))
    report.add("fully_separable", flag)
    if shape.num_screens >= 2:
        for j in range(1, shape.num_screens + 1):
            cut = Bipartition.split([j], shape.num_screens)
            rank = schmidt_decompose(v, shape, cut).rank
            report.add(f"rank[{j}]", rank)
    report.add("factors", len(factors) if factors else 0)
    report.emit(args.json)
    return EXIT_OK


def cmd_product_test(args: argparse.Namespace) -> int:
    ea = read_arrangement(args.input)
    cut = Bipartition.split(args.left, ea.shape.num_screens)
    flag, residual = is_product_across(ea, cut)
    report = Report("product-test")
    report.add("input", args.input)
    report.add("cut", str(cut))
    report.add("product", flag)
    report.add("residual", residual)
    report.emit(args.json)
    return EXIT_OK


def cmd_verify_basis_invariance(args: argparse.Namespace) -> int:
    ea = read_arrangement(args.input)
    target = ScreenConfiguration(args.target_shape) if args.target_shape else None
    if args.random_unitary:
        bt = BasisTransformation.random(ea.shape, args.seed, target)
    else:
        bt = BasisTransformation.identity(ea.shape, target)
    result = verify_basis_invariance(ea, bt, seed=args.seed)
    report = Report("verify-basis-invariance")
    report.add("input", args.input)
    report.add("mode", "random-unitary" if args.random_unitary else "identity")
    report.add("seed", args.seed)
    report.add("degree", result.degree)
    report.add("projectors", result.num_projectors)
    report.add("spectrum_residual", result.spectrum_residual)
    report.add("valuation_residual", result.valuation_residual)
    report.add("passed", result.passed)
    report.emit(args.json)
    return EXIT_OK if result.passed else EXIT_VALIDATION


def cmd_verify_factorization_invariance(args: argparse.Namespace) -> int:
    ea = read_arrangement(args.input)
    result = verify_factorization_invariance(ea, args.ancilla_dim, args.trials, args.seed)
    report = Report("verify-factorization-invariance")
    report.add("input", args.input)
    report.add("ancilla_dim", result.ancilla_dim)
    report.add("trials", result.trials)
    report.add("seed", args.seed)
    report.add("max_roundtrip_residual", result.max_roundtrip_residual)
    report.add("max_marginal_residual", result.max_marginal_residual)
    report.add("passed", result.passed)
    report.emit(args.json)
    return EXIT_OK if result.passed else EXIT_VALIDATION


def cmd_sample(args: argparse.Namespace) -> int:
    ea = read_arrangement(args.input)
    counts = sample_outcomes(ea, args.count, args.seed)
    report = Report("sample")
    report.add("input", args.input)
    report.add("algorithm", SAMPLER_ALGORITHM)
    report.add("seed", args.seed)
    report.add("draws", args.count)
    for index, c in counts.items():
        report.add(f"count[{_index_key(index)}]", c)
    report.emit(args.json)
    return EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    ea = read_arrangement(args.input)
    options = RenderOptions(
        max_powers=args.max_powers,
        min_potentia=args.min_potentia,
        canvas_width=args.width,
        canvas_height=args.height,
        show_labels=args.labels,
    )
    svg = render_arrangement_svg(ea, options)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    report = Report("render")
    report.add("input", args.input)
    report.add("output", args.out)
    report.add("glyphs", len(depicted_powers(ea, options)))
    report.emit(args.json)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlab",
        description="Inspect and transform multi-screen arrangement files.",
        epilog="Exit codes: 0 ok, 2 parse, 3 validation, 4 dimension, 5 numeric.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="emit one JSON object instead of key=value lines")

    p = sub.add_parser("validate", help="check an arrangement file against the validity rules")
    p.add_argument("--in", dest="input", required=True)
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("potentia", help="print the potentia table or one entry")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--power", type=_index_list, help="single 1-based multi-index, e.g. 1,2,1,2")
    p.add_argument("--min-potentia", type=_fraction, default=0.0, help="omit table rows below this value")
    common(p)
    p.set_defaults(func=cmd_potentia)

    p = sub.add_parser("change-basis", help="apply a unitary change of description")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--random-unitary", action="store_true", help="draw a seeded Haar unitary")
    p.add_argument("--permute-screens", type=_index_list, help="source screen order, e.g. 2,1")
    p.add_argument("--target-shape", type=_index_list, help="target detector counts (with --random-unitary)")
    p.add_argument("--seed", type=_seed, default=0)
    common(p)
    p.set_defaults(func=cmd_change_basis)

    p = sub.add_parser("refactor", help="reread the same entries under another factorization")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--shape", type=_index_list, required=True, help="new detector counts, e.g. 4,4")
    common(p)
    p.set_defaults(func=cmd_refactor)

    p = sub.add_parser("remove-screen", help="trace out one screen")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--screen", type=_positive_int, required=True, help="1-based screen position")
    common(p)
    p.set_defaults(func=cmd_remove_screen)

    p = sub.add_parser("extend", help="adjoin an uncorrelated pure screen as the last screen")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ancilla-dim", type=_positive_int, required=True)
    p.add_argument("--ancilla-basis", type=_positive_int, default=1, help="1-based basis state of the new screen")
    p.add_argument("--ancilla-state", help="state file (.qs) holding the ancilla amplitudes")
    common(p)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("schmidt", help="Schmidt decomposition of a state file across a cut")
    p.add_argument("--state", required=True)
    p.add_argument("--left", type=_index_list, required=True, help="screens on the left side, e.g. 1,3")
    common(p)
    p.set_defaults(func=cmd_schmidt)

    p = sub.add_parser("separability", help="test whether a state is a product of single-screen factors")
    p.add_argument("--state", required=True)
    common(p)
    p.set_defaults(func=cmd_separability)

    p = sub.add_parser("product-test", help="test an arrangement for product structure across a cut")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--left", type=_index_list, required=True)
    common(p)
    p.set_defaults(func=cmd_product_test)

    p = sub.add_parser("verify-basis-invariance", help="check that a basis change preserves observables")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--random-unitary", action="store_true")
    p.add_argument("--target-shape", type=_index_list)
    p.add_argument("--seed", type=_seed, default=0)
    common(p)
    p.set_defaults(func=cmd_verify_basis_invariance)

    p = sub.add_parser("verify-factorization-invariance", help="check extend-then-remove round trips")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--ancilla-dim", type=_positive_int, default=2)
    p.add_argument("--trials", type=_positive_int, default=5)
    p.add_argument("--seed", type=_seed, default=0)
    common(p)
    p.set_defaults(func=cmd_verify_factorization_invariance)

    p = sub.add_parser("sample", help="draw joint outcomes from the potentia table")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--count", type=_count, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("render", help="write an SVG depiction")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-powers", type=_positive_int)
    p.add_argument("--min-potentia", type=_fraction, default=1e-6)
    p.add_argument("--width", type=_positive_float, default=640.0)
    p.add_argument("--height", type=_positive_float, default=400.0)
    p.add_argument("--labels", action="store_true")
    common(p)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QLabError as e:
        print(f"error[{e.category}]: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"error[io]: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
