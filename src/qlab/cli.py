"""Command line front end.

Every subcommand reads arrangement (.ea) or state (.qs) files, prints a
line-oriented key=value report to stdout (or one JSON object with --json),
and exits 0 on success. Failures exit with the category of the error:
1 io (an --out file cannot be written), 2 parse, 3 validation, 4 dimension,
5 numeric. All randomness is seeded, so identical invocations produce
identical bytes with the same numpy, BLAS build and BLAS thread count (the
thread count can change the last bits of a BLAS product).

Each subcommand is one row of COMMANDS: its help text, the input that main
reads for it, its own arguments, and a function (args, input) -> (report
fields, passed). main adds --json, puts the command and its input first in
the report, prints it, and exits 3 when the function reports a failed check.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

import numpy as np

from .arrangement import SAMPLER_ALGORITHM, sample_outcomes, validate_isa
from .entanglement import Bipartition, _as_state, _schmidt as _schmidt_form, is_product_across, schmidt_decompose
from .errors import DimensionError, ParseError, QLabError
from .fileio import _write_text, read_arrangement, read_state, write_arrangement
from .screens import ScreenConfiguration
from .tensor import _check_capacity
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


def _index_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _checked(name: str, convert, ok, expected: str):
    """An argparse type named `name`: convert the text, then require ok(value)."""

    def check(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    check.__name__ = name
    return check


_INT64_MAX = np.iinfo(np.int64).max
_positive_int = _checked("_positive_int", int, lambda v: v >= 1, "a positive integer")
_seed = _checked("_seed", int, lambda v: v >= 0, "a nonnegative integer")
_count = _checked("_count", _positive_int, lambda v: v <= _INT64_MAX, f"a count of at most {_INT64_MAX}")
_positive_float = _checked(
    "_positive_float", float, lambda v: math.isfinite(v) and v > 0, "a finite positive number"
)
_fraction = _checked("_fraction", float, lambda v: 0.0 <= v <= 1.0, "a value in [0, 1]")


def _key(values: Sequence[int]) -> str:
    return ",".join(map(str, values))


def _text(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _target(counts: Sequence[int] | None) -> ScreenConfiguration | None:
    return ScreenConfiguration(counts) if counts else None


def _written(args, source, result, *fields) -> tuple[list, bool]:
    """Write the resulting arrangement to --out and report both factorizations."""
    write_arrangement(args.out, result)
    return [
        ("output", args.out),
        *fields,
        ("source_factorization", _key(source.shape.detector_counts)),
        ("target_factorization", _key(result.shape.detector_counts)),
    ], True


def _validate(args, ea):
    result = validate_isa(ea)
    fields = [("factorization", _key(ea.shape.detector_counts)), ("degree", ea.dimension)]
    for check in result.checks:
        fields += [(f"check[{check.name}].passed", check.passed), (f"check[{check.name}].residual", check.residual)]
    return fields + [("valid", result.valid)], result.valid


def _potentia(args, ea):
    fields = [("factorization", _key(ea.shape.detector_counts)), ("degree", ea.dimension)]
    if args.power is not None:
        if args.min_potentia is not None:
            raise ParseError("potentia: --power cannot be combined with --min-potentia")
        return fields + [(f"potentia[{_key(args.power)}]", ea.potentia(args.power))], True
    least = 0.0 if args.min_potentia is None else args.min_potentia
    table = zip(ea.shape.all_indices(), ea.potentia_table().tolist())
    return fields + [(f"potentia[{_key(index)}]", value) for index, value in table if value >= least], True


def _change_basis(args, ea):
    if args.permute_screens is not None:
        other = ("--random-unitary" if args.random_unitary else "--target-shape" if args.target_shape is not None
                 else "--seed" if args.seed is not None else None)
        if other:
            raise ParseError(f"change-basis: --permute-screens cannot be combined with {other}")
        bt = BasisTransformation.screen_permutation(ea.shape, args.permute_screens)
        mode = [("mode", "permutation")]
    elif args.random_unitary:
        seed = 0 if args.seed is None else args.seed
        bt = BasisTransformation.random(ea.shape, seed, _target(args.target_shape))
        mode = [("mode", "random-unitary"), ("seed", seed)]
    else:
        raise ParseError("change-basis needs --random-unitary or --permute-screens")
    return _written(args, ea, change_basis(ea, bt), *mode)


def _refactor(args, ea):
    return _written(args, ea, refactorize(ea, ScreenConfiguration(args.shape)))


def _remove_screen(args, ea):
    return _written(args, ea, remove_screen(ea, args.screen), ("screen", args.screen))


def _extend(args, ea):
    dim, basis = args.ancilla_dim, args.ancilla_basis
    if args.ancilla_state is not None:
        if basis is not None:
            raise ParseError("extend: --ancilla-state cannot be combined with --ancilla-basis")
        phi, state_shape, _ = read_state(args.ancilla_state)
        if state_shape.detector_counts != (dim,):
            raise DimensionError(f"ancilla state file has factorization {state_shape}, expected [{dim}]")
        ancilla = "file:" + args.ancilla_state
    else:
        basis = 1 if basis is None else basis
        if not 1 <= basis <= dim:
            raise DimensionError(f"ancilla basis index {basis} out of range 1..{dim}")
        _check_capacity(ea.dimension, dim)
        phi = np.zeros(dim, dtype=np.complex128)
        phi[basis - 1] = 1.0
        ancilla = f"basis:{basis}"
    return _written(args, ea, extend_arrangement(ea, dim, phi), ("ancilla_dim", dim), ("ancilla", ancilla))


def _schmidt(args, state):
    v, shape, _ = state
    cut = Bipartition.split(args.left, shape.num_screens)
    result = schmidt_decompose(v, shape, cut)
    fields = [("factorization", _key(shape.detector_counts)), ("cut", str(cut)), ("rank", result.rank)]
    return fields + [(f"coefficient[{i}]", float(c)) for i, c in enumerate(result.coefficients)], True


def _separability(args, state):
    v, shape, _ = state
    n = shape.num_screens
    v = _as_state(v, shape)  # proven once; every cut below covers the screens
    cuts = [Bipartition.split([j], n) for j in range(1, n + 1)] if n >= 2 else []
    ranks = [_schmidt_form(v, shape.detector_counts, cut).rank for cut in cuts]
    fully_separable = all(rank == 1 for rank in ranks)
    fields = [("factorization", _key(shape.detector_counts)), ("fully_separable", fully_separable)]
    fields += [(f"rank[{j}]", rank) for j, rank in enumerate(ranks, start=1)]
    return fields + [("factors", n if fully_separable else 0)], True


def _product_test(args, ea):
    cut = Bipartition.split(args.left, ea.shape.num_screens)
    flag, residual = is_product_across(ea, cut)
    return [("cut", str(cut)), ("product", flag), ("residual", residual)], True


def _verify_basis_invariance(args, ea):
    target = _target(args.target_shape)
    if args.random_unitary:
        bt = BasisTransformation.random(ea.shape, args.seed, target)
    else:
        bt = BasisTransformation.identity(ea.shape, target)
    r = verify_basis_invariance(ea, bt)
    return [
        ("mode", "random-unitary" if args.random_unitary else "identity"),
        ("seed", args.seed),
        ("degree", r.degree),
        ("spectrum_residual", r.spectrum_residual),
        ("valuation_residual", r.valuation_residual),
        ("passed", r.passed),
    ], r.passed


def _verify_factorization_invariance(args, ea):
    r = verify_factorization_invariance(ea, args.ancilla_dim, args.trials, args.seed)
    return [
        ("ancilla_dim", r.ancilla_dim),
        ("trials", r.trials),
        ("seed", args.seed),
        ("max_roundtrip_residual", r.max_roundtrip_residual),
        ("max_marginal_residual", r.max_marginal_residual),
        ("passed", r.passed),
    ], r.passed


def _sample(args, ea):
    counts = sample_outcomes(ea, args.count, args.seed)
    fields = [("algorithm", SAMPLER_ALGORITHM), ("seed", args.seed), ("draws", args.count)]
    return fields + [(f"count[{_key(index)}]", c) for index, c in counts.items()], True


def _render(args, ea):
    options = RenderOptions(
        max_powers=args.max_powers,
        min_potentia=args.min_potentia,
        canvas_width=args.width,
        canvas_height=args.height,
        show_labels=args.labels,
    )
    _write_text(args.out, render_arrangement_svg(ea, options))
    return [("output", args.out), ("glyphs", len(depicted_powers(ea, options)))], True


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    return flags, options


_OUT = _arg("--out", required=True)
_SEED = _arg("--seed", type=_seed, default=0)

# name: (help, input main reads for it, own arguments, run). The inputs are
# "arrangement" (--in, validated), "unvalidated" (--in) and "state" (--state).
COMMANDS = {
    "validate": ("check an arrangement file against the validity rules", "unvalidated", [], _validate),
    "potentia": ("print the potentia table or one entry", "arrangement", [
        _arg("--power", type=_index_list, help="single 1-based multi-index, e.g. 1,2,1,2"),
        _arg("--min-potentia", type=_fraction, help="omit table rows below this value (default 0)"),
    ], _potentia),
    "change-basis": ("apply a unitary change of description", "arrangement", [
        _OUT,
        _arg("--random-unitary", action="store_true", help="draw a seeded Haar unitary"),
        _arg("--permute-screens", type=_index_list, help="source screen order, e.g. 2,1"),
        _arg("--target-shape", type=_index_list, help="target detector counts (with --random-unitary)"),
        _arg("--seed", type=_seed),  # None tells an absent flag apart: --permute-screens refuses a seed
    ], _change_basis),
    "refactor": ("reread the same entries under another factorization", "arrangement", [
        _OUT,
        _arg("--shape", type=_index_list, required=True, help="new detector counts, e.g. 4,4"),
    ], _refactor),
    "remove-screen": ("trace out one screen", "arrangement", [
        _OUT,
        _arg("--screen", type=_positive_int, required=True, help="1-based screen position"),
    ], _remove_screen),
    "extend": ("adjoin an uncorrelated pure screen as the last screen", "arrangement", [
        _OUT,
        _arg("--ancilla-dim", type=_positive_int, required=True),
        _arg("--ancilla-basis", type=_positive_int, help="1-based basis state of the new screen (default 1)"),
        _arg("--ancilla-state", help="state file (.qs) holding the ancilla amplitudes, in place of --ancilla-basis"),
    ], _extend),
    "schmidt": ("Schmidt decomposition of a state file across a cut", "state", [
        _arg("--left", type=_index_list, required=True, help="screens on the left side, e.g. 1,3"),
    ], _schmidt),
    "separability": ("test whether a state is a product of single-screen factors", "state", [], _separability),
    "product-test": ("test an arrangement for product structure across a cut", "arrangement", [
        _arg("--left", type=_index_list, required=True),
    ], _product_test),
    "verify-basis-invariance": ("check that a basis change preserves observables", "arrangement", [
        _arg("--random-unitary", action="store_true"),
        _arg("--target-shape", type=_index_list),
        _SEED,
    ], _verify_basis_invariance),
    "verify-factorization-invariance": ("check extend-then-remove round trips", "arrangement", [
        _arg("--ancilla-dim", type=_positive_int, default=2),
        _arg("--trials", type=_positive_int, default=5),
        _SEED,
    ], _verify_factorization_invariance),
    "sample": ("draw joint outcomes from the potentia table", "arrangement", [
        _arg("--count", type=_count, required=True),
        _SEED,
    ], _sample),
    "render": ("write an SVG depiction", "arrangement", [
        _OUT,
        _arg("--max-powers", type=_positive_int),
        _arg("--min-potentia", type=_fraction, default=1e-6),
        _arg("--width", type=_positive_float, default=640.0),
        _arg("--height", type=_positive_float, default=400.0),
        _arg("--labels", action="store_true"),
    ], _render),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlab",
        description="Inspect and transform multi-screen arrangement files.",
        epilog="Exit codes: 0 ok, 1 io (an --out file cannot be written), 2 parse, 3 validation, "
        "4 dimension, 5 numeric.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, reads, arguments, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if reads == "state":
            p.add_argument("--state", required=True)
        else:
            p.add_argument("--in", dest="input", required=True)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.add_argument("--json", action="store_true", help="emit one JSON object instead of key=value lines")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _, reads, _, run = COMMANDS[args.subcommand]
    try:
        if reads == "state":
            source, loaded = ("state", args.state), read_state(args.state)
        else:
            source, loaded = ("input", args.input), read_arrangement(args.input, validate=reads == "arrangement")
        fields, passed = run(args, loaded)
        items = [("command", args.subcommand), source, *fields]
        if args.json:
            print(json.dumps(dict(items), indent=2))
        else:
            for key, value in items:
                print(f"{key}={_text(value)}")
        return EXIT_OK if passed else EXIT_VALIDATION
    except QLabError as e:
        print(f"error[{e.category}]: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"error[io]: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
