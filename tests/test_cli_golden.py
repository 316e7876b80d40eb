"""Golden output of every `qlab` subcommand, in key=value and --json mode.

`golden_cli.json` holds the input files, and for each invocation its stdout,
stderr, exit code and the bytes of any file it wrote. Cases whose numbers come
from LAPACK (eigenvalues, SVD, QR), whose last bits depend on the BLAS build,
compare the report keys in order and every non-float value, and read written
arrangements back as arrays; every other case compares bytes. Byte equality
is promised for the same numpy, BLAS build and BLAS thread count only; CI
also runs this file with OPENBLAS_NUM_THREADS=1.

To re-record after an intended output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

import numpy as np
import pytest

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")

# (argv, exact): exact=False marks reports and files fed by a LAPACK call.
CASES = [
    ("validate --in pair.ea", False),
    ("validate --in mixed.ea", False),
    ("validate --in bad.ea", False),
    ("validate --in absent.ea", True),
    ("validate --in broken.ea", True),
    ("validate --in deep.ea", True),
    ("potentia --in pair.ea", True),
    ("potentia --in pair.ea --power 1,2,1,2", True),
    ("potentia --in table.ea --min-potentia 0.5", True),
    ("potentia --in mixed.ea", True),
    ("potentia --in bad.ea", True),
    ("potentia --in pair.ea --power 3,1,1,1", True),
    ("change-basis --in pair.ea --out moved.ea --permute-screens 4,3,2,1", True),
    ("change-basis --in mixed.ea --out moved.ea --permute-screens 2,1", True),
    ("change-basis --in pair.ea --out moved.ea --permute-screens 1,1,2,3", True),
    ("change-basis --in pair.ea --out moved.ea", True),
    ("change-basis --in pair.ea --out missing/moved.ea --permute-screens 2,1,3,4", True),
    ("change-basis --in pair.ea --out moved.ea --random-unitary --seed 3", False),
    ("change-basis --in pair.ea --out moved.ea --random-unitary --target-shape 4,4 --seed 2", False),
    ("refactor --in pair.ea --out wide.ea --shape 4,4", True),
    ("refactor --in mixed.ea --out wide.ea --shape 6", True),
    ("refactor --in pair.ea --out wide.ea --shape 3,5", True),
    ("remove-screen --in pair.ea --out reduced.ea --screen 4", True),
    ("remove-screen --in mixed.ea --out reduced.ea --screen 1", True),
    ("remove-screen --in table.ea --out reduced.ea --screen 1", True),
    ("remove-screen --in pair.ea --out reduced.ea --screen 9", True),
    ("extend --in pair.ea --out ext.ea --ancilla-dim 2 --ancilla-basis 2", True),
    ("extend --in table.ea --out ext.ea --ancilla-dim 3", True),
    ("extend --in mixed.ea --out ext.ea --ancilla-dim 2 --ancilla-state phi.qs", True),
    ("extend --in pair.ea --out ext.ea --ancilla-dim 2 --ancilla-state phi3.qs", True),
    ("extend --in pair.ea --out ext.ea --ancilla-dim 2 --ancilla-basis 3", True),
    ("extend --in pair.ea --out ext.ea --ancilla-dim 300", True),
    ("schmidt --state bell.qs --left 1", False),
    ("schmidt --state w.qs --left 1,3", False),
    ("schmidt --state bell.qs --left 3", True),
    ("separability --state w.qs", True),
    ("separability --state product.qs", True),
    ("separability --state bell.qs", True),
    ("separability --state phi.qs", True),
    ("separability --state bad.qs", True),
    ("product-test --in pair.ea --left 1,2,3", True),
    ("product-test --in pair.ea --left 1", True),
    ("product-test --in mixed.ea --left 2", True),
    ("verify-basis-invariance --in pair.ea --random-unitary --seed 5", False),
    ("verify-basis-invariance --in pair.ea --random-unitary --target-shape 4,4 --seed 5", False),
    ("verify-basis-invariance --in table.ea", False),
    ("verify-factorization-invariance --in table.ea", False),
    ("verify-factorization-invariance --in mixed.ea --ancilla-dim 3 --trials 2 --seed 1", False),
    ("sample --in table.ea --count 500 --seed 9", True),
    ("sample --in pair.ea --count 1000", True),
    ("sample --in mixed.ea --count 77 --seed 4", True),
    ("render --in pair.ea --out pair.svg", True),
    ("render --in table.ea --out table.svg --max-powers 1 --width 200 --height 100 --labels", True),
    ("render --in mixed.ea --out mixed.svg --labels --min-potentia 0.1", True),
    ("render --in pair.ea --out missing/pair.svg", True),
    ("render --in surrogate.ea --out surrogate.svg --labels", True),
    ("render --in control.ea --out control.svg --labels", True),
]


def make_inputs() -> dict[str, str]:
    """Input file texts; recorded once into the golden file."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import qlab
    from helpers import bell_state, four_screen_pair, two_detector_table, w_state

    c = qlab.configuration
    product = np.kron([0.6, 0.8], [0.0, 1.0, 0.0])
    labelled = '{"version": 1, "factorization": [2], "label": "%s", "entries": [{"bra": [1], "ket": [1], "re": 1.0}]}\n'
    return {
        "pair.ea": qlab.serialize_arrangement(four_screen_pair()),
        "table.ea": qlab.serialize_arrangement(two_detector_table()),
        "mixed.ea": qlab.serialize_arrangement(qlab.random_arrangement(c(2, 3), 11, terms=2)),
        "bad.ea": '{"version": 1, "factorization": [2], "entries": ['
        '{"bra": [1], "ket": [1], "re": 0.9}, {"bra": [2], "ket": [2], "re": 0.2}]}\n',
        "broken.ea": "{nope}\n",
        "deep.ea": "[" * 5000 + "]" * 5000 + "\n",
        "surrogate.ea": labelled % "\\ud800",
        "control.ea": labelled % "a\\u0000b",
        "bell.qs": qlab.serialize_state(bell_state(), c(2, 2)),
        "w.qs": qlab.serialize_state(w_state(), c(2, 2, 2)),
        "product.qs": qlab.serialize_state(product, c(2, 3)),
        "phi.qs": qlab.serialize_state(np.array([0.0, 1.0]), c(2)),
        "phi3.qs": qlab.serialize_state(np.array([0.0, 1.0, 0.0]), c(3)),
        "bad.qs": '{"version": 1, "factorization": [2], "amplitudes": [{"index": [1], "re": 0.5}]}\n',
    }


def invoke(argv: list[str]) -> dict:
    """Run one invocation in the current directory and collect what it left."""
    from qlab.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    files = {}
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                files[path] = fh.read()
            os.remove(path)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def all_argv() -> list[tuple[list[str], bool]]:
    return [(argv.split() + mode, exact) for argv, exact in CASES for mode in ([], ["--json"])]


def report_items(stdout: str, json_mode: bool) -> list[tuple[str, object]]:
    if json_mode:
        return list(json.loads(stdout).items())
    return [tuple(line.split("=", 1)) for line in stdout.splitlines()]


def assert_close_reports(got: dict, want: dict, json_twin: dict | None) -> None:
    """Same keys in order, same non-float values, floats within 1e-9."""
    json_mode = json_twin is None
    got_items = report_items(got["stdout"], json_mode)
    want_items = report_items(want["stdout"], json_mode)
    twin = dict(report_items(json_twin["stdout"], True)) if json_twin else dict(want_items)
    assert [k for k, _ in got_items] == [k for k, _ in want_items]
    for (key, g), (_, w) in zip(got_items, want_items):
        if isinstance(twin.get(key), float):
            assert math.isclose(float(g), float(w), rel_tol=1e-9, abs_tol=1e-9), key
        else:
            assert g == w, key


def assert_close_files(got: dict, want: dict) -> None:
    import qlab

    assert sorted(got) == sorted(want)
    for path, text in want.items():
        a, b = qlab.parse_arrangement(got[path]), qlab.parse_arrangement(text)
        assert a.shape == b.shape and a.label == b.label
        assert np.max(np.abs(a.alpha.entries - b.alpha.entries)) <= 1e-9


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("argv,exact", all_argv(), ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_matches_golden(golden, tmp_path, monkeypatch, argv, exact):
    monkeypatch.chdir(tmp_path)
    for name, text in golden["inputs"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    key = " ".join(argv)
    got, want = invoke(argv), golden["runs"][key]
    assert (got["code"], got["stderr"]) == (want["code"], want["stderr"])
    if exact:
        assert got == want
        return
    json_twin = None if argv[-1] == "--json" else golden["runs"][key + " --json"]
    assert_close_reports(got, want, json_twin)
    assert_close_files(got["files"], want["files"])


def record() -> None:
    import tempfile

    inputs = make_inputs()
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, text in inputs.items():
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(text)
        for argv, _ in all_argv():
            runs[" ".join(argv)] = invoke(argv)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"inputs": inputs, "runs": runs}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    record()
