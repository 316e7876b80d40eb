import json
import os
import pathlib
import re
import subprocess
import sys
import xml.dom.minidom

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import qlab
from qlab import configuration, read_state, write_arrangement, write_state
from qlab.cli import COMMANDS, main

from helpers import bell_state, four_screen_pair, ghz_state, product_state, two_detector_table, w_state


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def as_dict(out: str) -> dict:
    pairs = [line.split("=", 1) for line in out.strip().splitlines()]
    return {k: v for k, v in pairs}


@pytest.fixture
def pair_file(tmp_path):
    path = str(tmp_path / "pair.ea")
    write_arrangement(path, four_screen_pair())
    return path


@pytest.fixture
def table_file(tmp_path):
    path = str(tmp_path / "table.ea")
    write_arrangement(path, two_detector_table())
    return path


@pytest.fixture
def bell_file(tmp_path):
    path = str(tmp_path / "bell.qs")
    write_state(path, bell_state(), configuration(2, 2))
    return path


class TestValidate:
    def test_valid_file(self, capsys, pair_file):
        rc, out, _ = run(capsys, "validate", "--in", pair_file)
        report = as_dict(out)
        assert rc == 0
        assert report["command"] == "validate"
        assert report["factorization"] == "2,2,2,2"
        assert report["degree"] == "16"
        assert report["valid"] == "true"
        for name in ("hermitian", "trace", "positive", "diagonal"):
            assert report[f"check[{name}].passed"] == "true"

    def test_invalid_trace_exits_three(self, capsys, tmp_path):
        path = tmp_path / "bad.ea"
        path.write_text(
            '{"version": 1, "factorization": [2], "entries": ['
            '{"bra": [1], "ket": [1], "re": 0.9},'
            '{"bra": [2], "ket": [2], "re": 0.2}]}',
            encoding="utf-8",
        )
        rc, out, _ = run(capsys, "validate", "--in", str(path))
        report = as_dict(out)
        assert rc == 3
        assert report["valid"] == "false"
        assert report["check[trace].passed"] == "false"
        assert float(report["check[trace].residual"]) == pytest.approx(0.1)

    def test_json_mode(self, capsys, pair_file):
        rc, out, _ = run(capsys, "validate", "--in", pair_file, "--json")
        payload = json.loads(out)
        assert rc == 0
        assert payload["valid"] is True
        assert payload["degree"] == 16


def _huge_entries_file(tmp_path, counts, records):
    path = tmp_path / "huge.ea"
    entries = ", ".join(
        f'{{"bra": [{i}], "ket": [{j}], "re": {re}, "im": {im}}}' for (i, j), (re, im) in records.items()
    )
    path.write_text(f'{{"version": 1, "factorization": {counts}, "entries": [{entries}]}}', encoding="utf-8")
    return str(path)


BIG = 1.7e308
HUGE_ENTRY_CASES = {
    # every entry 1.7e308: the trace overflows, the symmetrization must not
    "all entries": (
        [2], {(i, j): (BIG, 0) for i in (1, 2) for j in (1, 2)},
        {"hermitian": "0", "trace": "inf", "positive": "0", "diagonal": "1.6999999999999999e+308"},
        "trace (residual inf), diagonal (residual 1.700000e+308)",
    ),
    # not Hermitian: a - a^dagger overflows off the diagonal
    "antisymmetric": (
        [2], {(1, 1): (0.5, 0), (1, 2): (BIG, 0), (2, 1): (-BIG, 0), (2, 2): (0.5, 0)},
        {"hermitian": "inf", "trace": "0", "positive": "0", "diagonal": "0"},
        "hermitian (residual inf)",
    ),
    # Hermitian, but the spectrum overflows: the Cholesky gate must not pass it
    "overflowing spectrum": (
        [2], {(1, 1): (0.5, 0), (1, 2): (BIG, BIG), (2, 1): (BIG, -BIG), (2, 2): (0.5, 0)},
        {"hermitian": "0", "trace": "0", "positive": "inf", "diagonal": "0"},
        "positive (residual inf)",
    ),
    # one entry whose modulus overflows: the trace residual is inf, not an OverflowError
    "one detector": (
        [1], {(1, 1): (BIG, BIG)},
        {"hermitian": "inf", "trace": "inf", "positive": "0", "diagonal": "1.6999999999999999e+308"},
        "hermitian (residual inf), trace (residual inf), diagonal (residual 1.700000e+308)",
    ),
}


@pytest.mark.parametrize("case", sorted(HUGE_ENTRY_CASES))
def test_entries_near_the_largest_double_fail_without_warnings(capsys, tmp_path, case):
    counts, records, residuals, failures = HUGE_ENTRY_CASES[case]
    path = _huge_entries_file(tmp_path, counts, records)
    rc, out, err = run(capsys, "validate", "--in", path)
    report = as_dict(out)
    assert (rc, err, report["valid"]) == (3, "", "false")
    for name, residual in residuals.items():
        assert report[f"check[{name}].residual"] == residual
        assert report[f"check[{name}].passed"] == ("true" if residual == "0" else "false")
    rc, out, err = run(capsys, "potentia", "--in", path)
    assert (rc, out) == (3, "")
    assert err == f"error[validation]: arrangement failed validation: {failures}\n"


class TestPotentia:
    def test_full_table(self, capsys, table_file):
        rc, out, _ = run(capsys, "potentia", "--in", table_file)
        report = as_dict(out)
        assert rc == 0
        assert float(report["potentia[1]"]) == 0.7
        assert float(report["potentia[2]"]) == 0.3

    def test_single_power(self, capsys, pair_file):
        rc, out, _ = run(capsys, "potentia", "--in", pair_file, "--power", "1,2,1,2")
        assert rc == 0
        assert as_dict(out)["potentia[1,2,1,2]"] == "0.5"

    def test_min_potentia_filters_rows(self, capsys, table_file):
        rc, out, _ = run(capsys, "potentia", "--in", table_file, "--min-potentia", "0.5")
        report = as_dict(out)
        assert "potentia[1]" in report
        assert "potentia[2]" not in report

    @pytest.mark.parametrize("threshold", ["0.9", "0"])
    def test_power_refuses_min_potentia(self, capsys, pair_file, threshold):
        rc, out, err = run(capsys, "potentia", "--in", pair_file, "--power", "1,1,1,1", "--min-potentia", threshold)
        assert (rc, out, err) == (2, "", "error[parse]: potentia: --power cannot be combined with --min-potentia\n")


class TestTransformCommands:
    def test_change_basis_random_unitary(self, capsys, pair_file, tmp_path):
        out_path = str(tmp_path / "moved.ea")
        rc, out, _ = run(
            capsys, "change-basis", "--in", pair_file, "--out", out_path,
            "--random-unitary", "--seed", "3",
        )
        report = as_dict(out)
        assert rc == 0
        assert report["mode"] == "random-unitary"
        moved = qlab.read_arrangement(out_path)
        original = qlab.read_arrangement(pair_file)
        before = np.linalg.eigvalsh(original.alpha.entries)
        after = np.linalg.eigvalsh(moved.alpha.entries)
        assert np.max(np.abs(before - after)) <= 1e-9

    def test_change_basis_random_unitary_seed_defaults_to_zero(self, capsys, pair_file, tmp_path):
        runs = []
        for seed in ([], ["--seed", "0"]):
            out_path = tmp_path / f"moved{len(seed)}.ea"
            rc, out, _ = run(
                capsys, "change-basis", "--in", pair_file, "--out", str(out_path), "--random-unitary", *seed,
            )
            assert rc == 0
            assert as_dict(out)["seed"] == "0"
            runs.append(out_path.read_bytes())
        assert runs[0] == runs[1]

    def test_change_basis_permutation(self, capsys, pair_file, tmp_path):
        out_path = str(tmp_path / "permuted.ea")
        rc, out, _ = run(
            capsys, "change-basis", "--in", pair_file, "--out", out_path,
            "--permute-screens", "4,3,2,1",
        )
        assert rc == 0
        moved = qlab.read_arrangement(out_path)
        assert moved.potentia((2, 1, 2, 1)) == 0.5

    def test_change_basis_needs_a_mode(self, capsys, pair_file, tmp_path):
        rc, _, err = run(capsys, "change-basis", "--in", pair_file, "--out", str(tmp_path / "x.ea"))
        assert rc == 2
        assert "error[parse]" in err

    def test_refactor_round_trip_bytes(self, capsys, pair_file, tmp_path):
        wide = str(tmp_path / "wide.ea")
        back = str(tmp_path / "back.ea")
        rc1, out, _ = run(capsys, "refactor", "--in", pair_file, "--out", wide, "--shape", "4,4")
        assert rc1 == 0
        assert as_dict(out)["target_factorization"] == "4,4"
        rc2, _, _ = run(capsys, "refactor", "--in", wide, "--out", back, "--shape", "2,2,2,2")
        assert rc2 == 0
        assert pathlib.Path(back).read_bytes() == pathlib.Path(pair_file).read_bytes()

    def test_remove_then_extend_restores_bytes(self, capsys, pair_file, tmp_path):
        reduced = str(tmp_path / "reduced.ea")
        restored = str(tmp_path / "restored.ea")
        rc1, out, _ = run(capsys, "remove-screen", "--in", pair_file, "--out", reduced, "--screen", "4")
        assert rc1 == 0
        assert as_dict(out)["target_factorization"] == "2,2,2"
        # screen 4 sat at its second detector, so restore it the same way
        rc2, _, _ = run(
            capsys, "extend", "--in", reduced, "--out", restored,
            "--ancilla-dim", "2", "--ancilla-basis", "2",
        )
        assert rc2 == 0
        assert pathlib.Path(restored).read_bytes() == pathlib.Path(pair_file).read_bytes()

    def test_extend_with_state_file(self, capsys, pair_file, tmp_path):
        phi = str(tmp_path / "phi.qs")
        write_state(phi, np.array([0.0, 1.0]), configuration(2))
        by_file = str(tmp_path / "by_file.ea")
        by_basis = str(tmp_path / "by_basis.ea")
        rc1, out, _ = run(
            capsys, "extend", "--in", pair_file, "--out", by_file,
            "--ancilla-dim", "2", "--ancilla-state", phi,
        )
        assert rc1 == 0
        assert as_dict(out)["ancilla"] == "file:" + phi
        rc2, _, _ = run(
            capsys, "extend", "--in", pair_file, "--out", by_basis,
            "--ancilla-dim", "2", "--ancilla-basis", "2",
        )
        assert rc2 == 0
        assert pathlib.Path(by_file).read_bytes() == pathlib.Path(by_basis).read_bytes()

    def test_extend_state_factorization_mismatch(self, capsys, pair_file, tmp_path):
        phi = str(tmp_path / "phi.qs")
        write_state(phi, np.array([0.0, 1.0, 0.0]), configuration(3))
        rc, _, err = run(
            capsys, "extend", "--in", pair_file, "--out", str(tmp_path / "x.ea"),
            "--ancilla-dim", "2", "--ancilla-state", phi,
        )
        assert rc == 4
        assert "error[dimension]" in err

    def test_extend_defaults_to_basis_state_one(self, capsys, pair_file, tmp_path):
        implicit, explicit = tmp_path / "implicit.ea", tmp_path / "explicit.ea"
        rc1, out, _ = run(capsys, "extend", "--in", pair_file, "--out", str(implicit), "--ancilla-dim", "2")
        rc2, _, _ = run(
            capsys, "extend", "--in", pair_file, "--out", str(explicit), "--ancilla-dim", "2", "--ancilla-basis", "1"
        )
        assert rc1 == rc2 == 0
        assert as_dict(out)["ancilla"] == "basis:1"
        assert implicit.read_bytes() == explicit.read_bytes()

    @pytest.mark.parametrize("argv, message", [
        (
            ["change-basis", "--permute-screens", "2,1,3,4", "--random-unitary"],
            "change-basis: --permute-screens cannot be combined with --random-unitary",
        ),
        (
            ["change-basis", "--permute-screens", "2,1,3,4", "--target-shape", "16"],
            "change-basis: --permute-screens cannot be combined with --target-shape",
        ),
        (
            ["change-basis", "--permute-screens", "2,1,3,4", "--seed", "5"],
            "change-basis: --permute-screens cannot be combined with --seed",
        ),
        (
            ["change-basis", "--permute-screens", "2,1,3,4", "--seed", "0"],
            "change-basis: --permute-screens cannot be combined with --seed",
        ),
        (
            ["extend", "--ancilla-dim", "2", "--ancilla-state", "phi.qs", "--ancilla-basis", "2"],
            "extend: --ancilla-state cannot be combined with --ancilla-basis",
        ),
    ], ids=["permute-and-random-unitary", "permute-and-target-shape", "permute-and-seed", "permute-and-seed-zero",
            "state-and-basis"])
    def test_contradictory_flags_are_parse_errors(self, capsys, pair_file, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        write_state("phi.qs", np.array([0.0, 1.0]), configuration(2))
        rc, out, err = run(capsys, *argv, "--in", pair_file, "--out", "x.ea")
        assert (rc, out, err) == (2, "", f"error[parse]: {message}\n")
        assert not (tmp_path / "x.ea").exists()

    def test_remove_screen_out_of_range(self, capsys, pair_file, tmp_path):
        rc, _, err = run(
            capsys, "remove-screen", "--in", pair_file, "--out", str(tmp_path / "x.ea"),
            "--screen", "9",
        )
        assert rc == 4
        assert "error[dimension]" in err


class TestAnalysisCommands:
    def test_schmidt(self, capsys, bell_file):
        rc, out, _ = run(capsys, "schmidt", "--state", bell_file, "--left", "1")
        report = as_dict(out)
        assert rc == 0
        assert report["cut"] == "1|2"
        assert report["rank"] == "2"
        assert float(report["coefficient[0]"]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_separability_entangled(self, capsys, tmp_path, monkeypatch):
        path = str(tmp_path / "w.qs")
        write_state(path, w_state(), configuration(2, 2, 2))
        # the single-screen ranks decide; the CLI never peels
        monkeypatch.setattr(qlab.entanglement, "is_fully_separable_pure", None)
        rc, out, _ = run(capsys, "separability", "--state", path)
        report = as_dict(out)
        assert rc == 0
        assert report["fully_separable"] == "false"
        assert report["rank[1]"] == report["rank[2]"] == report["rank[3]"] == "2"
        assert report["factors"] == "0"

    def test_separability_entangled_past_screen_one(self, capsys, tmp_path):
        path = str(tmp_path / "zero_bell.qs")
        write_state(path, np.kron([1.0, 0.0], bell_state()), configuration(2, 2, 2))
        rc, out, _ = run(capsys, "separability", "--state", path)
        report = as_dict(out)
        assert (report["fully_separable"], report["rank[1]"], report["factors"]) == ("false", "1", "0")

    def test_separability_product(self, capsys, tmp_path):
        path = str(tmp_path / "product.qs")
        write_state(path, np.kron([1.0, 0.0], [0.0, 1.0]), configuration(2, 2))
        rc, out, _ = run(capsys, "separability", "--state", path)
        report = as_dict(out)
        assert report["fully_separable"] == "true"
        assert report["factors"] == "2"

    @pytest.mark.parametrize(
        "name, counts, state",
        [
            ("product1", (3,), lambda: product_state((3,), 1)[0]),
            ("product2", (2, 3), lambda: product_state((2, 3), 2)[0]),
            ("product3", (2, 2, 2), lambda: product_state((2, 2, 2), 3)[0]),
            ("product4", (2, 3, 1, 2), lambda: product_state((2, 3, 1, 2), 4)[0]),
            ("bell", (2, 2), bell_state),
            ("ghz3", (2, 2, 2), lambda: ghz_state(3)),
            ("ghz4", (2, 2, 2, 2), lambda: ghz_state(4)),
            ("w", (2, 2, 2), w_state),
            ("zero_bell", (2, 2, 2), lambda: np.kron([1.0, 0.0], bell_state())),
            *[
                (f"random{len(counts)}", counts, lambda counts=counts: qlab.random_state_vector(
                    int(np.prod(counts)), qlab.make_rng(len(counts))))
                for counts in [(4,), (2, 3), (3, 2, 2), (2, 2, 2, 2)]
            ],
        ],
    )
    def test_separability_agrees_with_peeling(self, capsys, tmp_path, name, counts, state):
        path = str(tmp_path / f"{name}.qs")
        write_state(path, state(), configuration(*counts))
        flag, factors = qlab.is_fully_separable_pure(*read_state(path)[:2])
        rc, out, _ = run(capsys, "separability", "--state", path)
        report = as_dict(out)
        assert rc == 0
        assert report["fully_separable"] == ("true" if flag else "false")
        assert report["factors"] == str(len(factors) if flag else 0)

    def test_separability_proves_its_state_once(self, capsys, tmp_path, monkeypatch):
        shape = configuration(*[2] * 12)
        path = str(tmp_path / "random.qs")
        write_state(path, qlab.random_state_vector(shape.dimension, qlab.make_rng(12)), shape)
        v = read_state(path)[0]
        ranks = [qlab.schmidt_decompose(v, shape, qlab.Bipartition.split([j], 12)).rank for j in range(1, 13)]
        norms = []
        unit_norm = qlab.entanglement._unit_norm
        monkeypatch.setattr(qlab.entanglement, "_unit_norm", lambda *a: norms.append(a) or unit_norm(*a))
        rc, out, _ = run(capsys, "separability", "--state", path)
        report = as_dict(out)
        assert rc == 0 and len(norms) == 1  # one check per screen made 12
        assert [int(report[f"rank[{j}]"]) for j in range(1, 13)] == ranks

    def test_product_test_both_cuts(self, capsys, pair_file):
        rc, out, _ = run(capsys, "product-test", "--in", pair_file, "--left", "1,2,3")
        report = as_dict(out)
        assert rc == 0
        assert report["product"] == "true"
        rc, out, _ = run(capsys, "product-test", "--in", pair_file, "--left", "1")
        report = as_dict(out)
        assert report["product"] == "false"
        assert report["residual"] == "0.25"

    def test_verify_basis_invariance(self, capsys, pair_file):
        rc, out, _ = run(
            capsys, "verify-basis-invariance", "--in", pair_file,
            "--random-unitary", "--seed", "5",
        )
        report = as_dict(out)
        assert rc == 0
        assert report["passed"] == "true"
        assert report["degree"] == "16"
        assert float(report["spectrum_residual"]) <= 1e-9

    def test_verify_basis_invariance_cross_factorization(self, capsys, pair_file):
        rc, out, _ = run(
            capsys, "verify-basis-invariance", "--in", pair_file,
            "--random-unitary", "--target-shape", "4,4", "--seed", "5",
        )
        assert rc == 0
        assert as_dict(out)["passed"] == "true"

    def test_verify_factorization_invariance(self, capsys, table_file):
        rc, out, _ = run(capsys, "verify-factorization-invariance", "--in", table_file)
        report = as_dict(out)
        assert rc == 0
        assert report["passed"] == "true"
        assert report["trials"] == "5"
        assert float(report["max_roundtrip_residual"]) <= 1e-10


class TestSampleAndRender:
    def test_sample_deterministic(self, capsys, table_file):
        rc1, out1, _ = run(capsys, "sample", "--in", table_file, "--count", "500", "--seed", "9")
        rc2, out2, _ = run(capsys, "sample", "--in", table_file, "--count", "500", "--seed", "9")
        assert rc1 == rc2 == 0
        assert out1 == out2
        report = as_dict(out1)
        assert report["algorithm"] == qlab.SAMPLER_ALGORITHM
        total = sum(int(v) for k, v in report.items() if k.startswith("count["))
        assert total == 500

    def test_render(self, capsys, pair_file, tmp_path):
        out_path = str(tmp_path / "pair.svg")
        rc, out, _ = run(capsys, "render", "--in", pair_file, "--out", out_path)
        assert rc == 0
        assert as_dict(out)["glyphs"] == "2"
        first = pathlib.Path(out_path).read_bytes()
        assert first.startswith(b"<?xml")
        run(capsys, "render", "--in", pair_file, "--out", out_path)
        assert pathlib.Path(out_path).read_bytes() == first

    def test_render_options(self, capsys, table_file, tmp_path):
        out_path = str(tmp_path / "table.svg")
        rc, out, _ = run(
            capsys, "render", "--in", table_file, "--out", out_path,
            "--max-powers", "1", "--width", "200", "--height", "100", "--labels",
        )
        assert rc == 0
        assert as_dict(out)["glyphs"] == "1"
        text = pathlib.Path(out_path).read_text(encoding="utf-8")
        assert 'width="200.000"' in text
        assert "screen-label" in text


class TestErrorPaths:
    def test_missing_file_is_parse_error(self, capsys, tmp_path):
        rc, _, err = run(capsys, "validate", "--in", str(tmp_path / "absent.ea"))
        assert rc == 2
        assert "error[parse]" in err

    def test_syntax_error(self, capsys, tmp_path):
        path = tmp_path / "broken.ea"
        path.write_text("{nope}", encoding="utf-8")
        rc, _, err = run(capsys, "validate", "--in", str(path))
        assert rc == 2
        assert "error[parse]" in err

    def test_undecodable_file_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "latin.ea"
        path.write_bytes(b"\xff" + b'{"version": 1}')
        rc, out, err = run(capsys, "validate", "--in", str(path))
        assert (rc, out) == (2, "")
        assert err == f"error[parse]: cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"

    def test_invalid_arrangement_blocks_analysis(self, capsys, tmp_path):
        path = tmp_path / "bad.ea"
        path.write_text(
            '{"version": 1, "factorization": [2], "entries": [{"bra": [1], "ket": [1], "re": 0.9}]}',
            encoding="utf-8",
        )
        rc, _, err = run(capsys, "potentia", "--in", str(path))
        assert rc == 3
        assert "error[validation]" in err

    def test_out_of_range_index(self, capsys, tmp_path):
        path = tmp_path / "oob.ea"
        path.write_text(
            '{"version": 1, "factorization": [2], "entries": [{"bra": [3], "ket": [1], "re": 1.0}]}',
            encoding="utf-8",
        )
        rc, _, err = run(capsys, "validate", "--in", str(path))
        assert rc == 4
        assert "error[dimension]" in err

    def test_overflow_value(self, capsys, tmp_path):
        path = tmp_path / "huge.ea"
        path.write_text(
            '{"version": 1, "factorization": [2], "entries": [{"bra": [1], "ket": [1], "re": 1e999}]}',
            encoding="utf-8",
        )
        rc, _, err = run(capsys, "validate", "--in", str(path))
        assert rc == 5
        assert "error[numeric]" in err

    def test_unknown_subcommand_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate"])
        assert exc.value.code == 2

    def test_integer_too_large_for_a_float(self, capsys, tmp_path):
        path = tmp_path / "huge.ea"
        path.write_text(
            '{"version": 1, "factorization": [2], "entries": [{"bra": [1], "ket": [1], "re": 1%s}]}' % ("0" * 400),
            encoding="utf-8",
        )
        rc, _, err = run(capsys, "validate", "--in", str(path))
        assert rc == 2
        assert err == "error[parse]: entries[0].re is too large for a float\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--in", "{in}", "--count", "10", "--seed", "-1"],
            ["sample", "--in", "{in}", "--count", "100000000000000000000"],
            ["sample", "--in", "{in}", "--count", "9223372036854775808"],
            ["change-basis", "--in", "{in}", "--out", "{out}", "--random-unitary", "--seed", "-1"],
            ["verify-basis-invariance", "--in", "{in}", "--random-unitary", "--seed", "-1"],
            ["verify-factorization-invariance", "--in", "{in}", "--seed", "-1"],
            ["render", "--in", "{in}", "--out", "{out}", "--width", "0"],
            ["render", "--in", "{in}", "--out", "{out}", "--width", "nan"],
            ["render", "--in", "{in}", "--out", "{out}", "--height", "inf"],
            ["render", "--in", "{in}", "--out", "{out}", "--height", "-400"],
        ],
    )
    def test_bad_argument_values_are_usage_errors(self, capsys, pair_file, tmp_path, argv):
        out = tmp_path / "out"
        argv = [a.format(**{"in": pair_file, "out": out}) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: qlab ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["extend", "--in", "{in}", "--out", "{out}", "--ancilla-dim", "100000000000000000000"],
            ["verify-factorization-invariance", "--in", "{in}", "--ancilla-dim", "100000000000000000000"],
        ],
    )
    def test_huge_ancilla_dim_is_a_dimension_error(self, capsys, pair_file, tmp_path, argv):
        out = tmp_path / "out.ea"
        rc, stdout, err = run(capsys, *[a.format(**{"in": pair_file, "out": out}) for a in argv])
        assert rc == 4
        assert stdout == ""
        assert err.startswith("error[dimension]: capacity overflow")
        assert not out.exists()


# Argument values for the argv property: small, huge, negative and zero
# integers, empty lists, and NaN, infinite or out-of-range floats.
INTS = st.one_of(st.integers(-2, 5), st.sampled_from([10**20, -(10**20), 2**63, 2**63 - 1, 4096]))
INT_LISTS = st.lists(INTS, max_size=5).map(lambda xs: ",".join(map(str, xs)))
FLOATS = st.one_of(st.floats(), st.sampled_from(["nan", "-inf", "1e400", "0", "-0.0", "0.5"]))
SMALL = st.integers(-1, 3)  # --trials: a large value is only slow


def opt(flag, values, required=False):
    present = values.map(lambda v: [flag, str(v)])
    return present if required else st.one_of(st.just([]), present)


def switch(flag):
    return st.sampled_from([[], [flag]])


ARRANGEMENTS = st.sampled_from(["pair.ea", "table.ea", "bad.ea", "absent.ea"])
STATES = st.sampled_from(["bell.qs", "w.qs", "phi.qs", "absent.qs"])
OWN_ARGS = {
    "validate": [],
    "potentia": [opt("--power", INT_LISTS), opt("--min-potentia", FLOATS)],
    "change-basis": [
        switch("--random-unitary"), opt("--permute-screens", INT_LISTS), opt("--target-shape", INT_LISTS),
        opt("--seed", INTS),
    ],
    "refactor": [opt("--shape", INT_LISTS, required=True)],
    "remove-screen": [opt("--screen", INTS, required=True)],
    "extend": [
        opt("--ancilla-dim", INTS, required=True), opt("--ancilla-basis", INTS), opt("--ancilla-state", STATES),
    ],
    "schmidt": [opt("--left", INT_LISTS, required=True)],
    "separability": [],
    "product-test": [opt("--left", INT_LISTS, required=True)],
    "verify-basis-invariance": [switch("--random-unitary"), opt("--target-shape", INT_LISTS), opt("--seed", INTS)],
    "verify-factorization-invariance": [opt("--ancilla-dim", INTS), opt("--trials", SMALL), opt("--seed", INTS)],
    "sample": [opt("--count", INTS, required=True), opt("--seed", INTS)],
    "render": [
        opt("--max-powers", INTS), opt("--min-potentia", FLOATS), opt("--width", FLOATS), opt("--height", FLOATS),
        switch("--labels"),
    ],
}
WRITES = {"change-basis", "refactor", "remove-screen", "extend", "render"}


@pytest.fixture
def argv_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_arrangement("pair.ea", four_screen_pair())
    write_arrangement("table.ea", two_detector_table())
    (tmp_path / "bad.ea").write_text(
        '{"version": 1, "factorization": [2], "entries": [{"bra": [1], "ket": [1], "re": 0.9}]}',
        encoding="utf-8",
    )
    write_state("bell.qs", bell_state(), configuration(2, 2))
    write_state("w.qs", w_state(), configuration(2, 2, 2))
    write_state("phi.qs", np.array([0.0, 1.0]), configuration(2))


@st.composite
def argvs(draw, name):
    source = ["--state", draw(STATES)] if name in ("schmidt", "separability") else ["--in", draw(ARRANGEMENTS)]
    argv = [name, *source, *(["--out", "out"] if name in WRITES else [])]
    for part in OWN_ARGS[name]:
        argv += draw(part)
    return argv + draw(switch("--json"))


def test_argv_property_covers_every_subcommand():
    assert sorted(OWN_ARGS) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(OWN_ARGS))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_argv_exits_with_a_documented_code(capsys, argv_files, name, data):
    argv = data.draw(argvs(name))
    try:
        rc = main(argv)
    except SystemExit as e:
        rc = e.code
    err = capsys.readouterr().err
    assert rc in (0, 2, 3, 4, 5), (argv, err)
    assert "Traceback" not in err


# File bytes for the hostile-file property: mutations of canonical text (which
# the canonical reader then refuses and the JSON path reads record by record)
# and random bytes. Each subcommand gets the arguments it requires.
FILE_ARGV = {
    "validate": [], "potentia": [], "change-basis": ["--permute-screens", "2,1"], "refactor": ["--shape", "4"],
    "remove-screen": ["--screen", "1"], "extend": ["--ancilla-dim", "2", "--ancilla-state", "ancilla.qs"],
    "schmidt": ["--left", "1"], "separability": [], "product-test": ["--left", "1"],
    "verify-basis-invariance": ["--random-unitary"], "verify-factorization-invariance": ["--trials", "1"],
    "sample": ["--count", "5"], "render": ["--labels"],
}
INSERTS = (b"0", b"7", b"-", b".", b"e", b"+", b" ", b"\n", b",", b"[", b"]", b"{", b"}", b'"', b":", b"\x00",
           b"\xff", b"\xc3\xa9", b"1e999", b"true", b"NaN", b"-0", b'"im"', b"[1, 1]")
# in place of one number token: JSON stays well-formed, so the record checks run
TOKENS = (b"0", b"1", b"2", b"5", b"-1", b"-0", b"1.0", b"1e999", b"1" + b"0" * 400, b"0.5", b"true", b"null",
          b'"1"', b"[1]", b"{}", b"[]", b"[1, 1]")


CANONICAL = {
    "ea": [qlab.serialize_arrangement(ea).encode() for ea in (
        four_screen_pair(), two_detector_table(), qlab.random_arrangement(configuration(2, 2), qlab.make_rng(3)))],
    "qs": [qlab.serialize_state(v, configuration(*counts), label).encode() for v, counts, label in (
        (bell_state(), (2, 2), "bell"), (w_state(), (2, 2, 2), None),
        (qlab.random_state_vector(4, qlab.make_rng(4)), (2, 2), None))],
}


@st.composite
def hostile_files(draw, kind: str) -> bytes:
    """Random bytes, or canonical text with one to three token, byte or line edits."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=200))
    data = draw(st.sampled_from(CANONICAL[kind]))
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["token", "token", "flip", "truncate", "insert", "delete", "duplicate_line",
                                     "swap_lines"]))
        at = draw(st.integers(0, len(data)))
        tokens = list(re.finditer(rb"-?\d[\d.eE+-]*", data))
        if edit == "token" and tokens:
            found = draw(st.sampled_from(tokens))
            data = data[: found.start()] + draw(st.sampled_from(TOKENS)) + data[found.end() :]
        elif edit == "flip" and at < len(data):
            data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1 :]
        elif edit == "truncate":
            data = data[:at]
        elif edit == "insert":
            data = data[:at] + draw(st.sampled_from(INSERTS)) + data[at:]
        elif edit == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 8)) :]
        else:
            lines = data.split(b"\n")
            records = [i for i, line in enumerate(lines) if line.startswith(b"    {")] or list(range(len(lines)))
            i, j = draw(st.sampled_from(records)), draw(st.sampled_from(records))
            if edit == "duplicate_line":
                lines.insert(j, lines[i])
            else:
                lines[i], lines[j] = lines[j], lines[i]
            data = b"\n".join(lines)
    return data


@pytest.mark.parametrize("name", sorted(FILE_ARGV))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_file_bytes_exit_with_a_documented_code(capsys, tmp_path, monkeypatch, name, data):
    # a mutated factorization may ask for up to 4096 detectors; a low cap keeps examples small
    monkeypatch.setattr(qlab.tolerances, "DIMENSION_CAP", 64)
    reads_state = COMMANDS[name][1] == "state"
    path = tmp_path / ("in.qs" if reads_state else "in.ea")
    path.write_bytes(data.draw(hostile_files("qs" if reads_state else "ea"), label="input"))
    if name == "extend":
        (tmp_path / "ancilla.qs").write_bytes(data.draw(hostile_files("qs"), label="ancilla"))
    out = tmp_path / ("out.svg" if name == "render" else "out.ea")
    out.unlink(missing_ok=True)  # all examples share one tmp_path
    argv = [name, "--state" if reads_state else "--in", str(path), *FILE_ARGV[name]]
    argv += ["--out", str(out)] if name in WRITES else []
    rc = main(argv + data.draw(switch("--json")))
    err = capsys.readouterr().err
    assert rc in (0, 1, 2, 3, 4, 5), (argv, err)
    assert "Traceback" not in err
    if rc == 0 and name in WRITES:
        written = out.read_bytes()
        if name == "render":
            xml.dom.minidom.parseString(written)
        else:
            assert qlab.serialize_arrangement(qlab.read_arrangement(str(out))).encode() == written


def test_module_entry_point(pair_file):
    proc = subprocess.run(
        [sys.executable, "-m", "qlab", "validate", "--in", pair_file],
        capture_output=True, text=True, encoding="utf-8",
    )
    assert proc.returncode == 0
    assert "valid=true" in proc.stdout


class TestOutputFiles:
    """A regular --out file is replaced whole or left as it was; anything else is written directly."""

    @pytest.fixture
    def big_file(self, tmp_path):
        path = tmp_path / "n256.ea"
        write_arrangement(str(path), qlab.random_arrangement(configuration(*[2] * 8), 3))
        return path

    def change_basis_limited(self, source, out):
        """`qlab change-basis` in a child whose files may grow to 1 MB, without SIGXFSZ."""
        child = (
            "import resource, signal, sys\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (10**6, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))\n"
            "from qlab.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        argv = ["change-basis", "--in", str(source), "--out", str(out), "--permute-screens", "8,7,6,5,4,3,2,1"]
        return subprocess.run([sys.executable, "-c", child, *argv], capture_output=True, text=True, encoding="utf-8")

    @pytest.mark.skipif(sys.platform == "win32", reason="RLIMIT_FSIZE is POSIX")
    def test_a_failed_write_leaves_no_file_and_keeps_an_old_one(self, big_file):
        out = big_file.parent / "part.ea"
        proc = self.change_basis_limited(big_file, out)
        assert proc.returncode == 1 and proc.stderr.startswith("error[io]: [Errno 27]")
        assert sorted(os.listdir(big_file.parent)) == ["n256.ea"]
        out.write_bytes(b"old bytes")
        proc = self.change_basis_limited(big_file, out)
        assert proc.returncode == 1 and proc.stderr.startswith("error[io]:")
        assert sorted(os.listdir(big_file.parent)) == ["n256.ea", "part.ea"] and out.read_bytes() == b"old bytes"

    def test_a_new_file_gets_the_mode_of_a_plain_open_and_an_old_one_keeps_its_own(self, capsys, tmp_path, pair_file):
        mask = os.umask(0o027)
        try:
            (tmp_path / "plain").open("w", encoding="utf-8").close()
            rc, _, _ = run(capsys, "render", "--in", pair_file, "--out", str(tmp_path / "new.svg"))
        finally:
            os.umask(mask)
        assert rc == 0
        assert os.stat(tmp_path / "new.svg").st_mode == os.stat(tmp_path / "plain").st_mode
        old = tmp_path / "old.svg"
        old.write_bytes(b"old")
        old.chmod(0o604)
        rc, _, _ = run(capsys, "render", "--in", pair_file, "--out", str(old))
        assert rc == 0 and old.read_bytes().startswith(b"<?xml") and (os.stat(old).st_mode & 0o777) == 0o604
        assert sorted(os.listdir(tmp_path)) == ["new.svg", "old.svg", "pair.ea", "plain"]

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_a_device_is_written_directly(self, pair_file):
        proc = subprocess.run(
            [sys.executable, "-m", "qlab", "render", "--in", pair_file, "--out", "/dev/stdout"],
            capture_output=True, text=True, encoding="utf-8",
        )
        assert proc.returncode == 0 and proc.stdout.startswith("<?xml") and "\noutput=/dev/stdout\n" in proc.stdout

    @pytest.mark.skipif(sys.platform == "win32", reason="symbolic links need privileges")
    def test_a_symbolic_link_is_written_through(self, capsys, tmp_path, pair_file):
        target, link = tmp_path / "target.svg", tmp_path / "link.svg"
        target.write_bytes(b"old")
        link.symlink_to(target)
        rc, _, _ = run(capsys, "render", "--in", pair_file, "--out", str(link))
        assert rc == 0 and link.is_symlink() and target.read_bytes().startswith(b"<?xml")
