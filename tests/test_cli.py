import json
import subprocess
import sys

import numpy as np
import pytest

import qlab
from qlab import configuration, write_arrangement, write_state
from qlab.cli import main

from helpers import bell_state, four_screen_pair, two_detector_table, w_state


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
            '{"bra": [2], "ket": [2], "re": 0.2}]}'
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
        assert open(back, "rb").read() == open(pair_file, "rb").read()

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
        assert open(restored, "rb").read() == open(pair_file, "rb").read()

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
        assert open(by_file, "rb").read() == open(by_basis, "rb").read()

    def test_extend_state_factorization_mismatch(self, capsys, pair_file, tmp_path):
        phi = str(tmp_path / "phi.qs")
        write_state(phi, np.array([0.0, 1.0, 0.0]), configuration(3))
        rc, _, err = run(
            capsys, "extend", "--in", pair_file, "--out", str(tmp_path / "x.ea"),
            "--ancilla-dim", "2", "--ancilla-state", phi,
        )
        assert rc == 4
        assert "error[dimension]" in err

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

    def test_separability_entangled(self, capsys, tmp_path):
        path = str(tmp_path / "w.qs")
        write_state(path, w_state(), configuration(2, 2, 2))
        rc, out, _ = run(capsys, "separability", "--state", path)
        report = as_dict(out)
        assert rc == 0
        assert report["fully_separable"] == "false"
        assert report["rank[1]"] == report["rank[2]"] == report["rank[3]"] == "2"
        assert report["factors"] == "0"

    def test_separability_product(self, capsys, tmp_path):
        path = str(tmp_path / "product.qs")
        write_state(path, np.kron([1.0, 0.0], [0.0, 1.0]), configuration(2, 2))
        rc, out, _ = run(capsys, "separability", "--state", path)
        report = as_dict(out)
        assert report["fully_separable"] == "true"
        assert report["factors"] == "2"

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
        first = open(out_path, "rb").read()
        assert first.startswith(b"<?xml")
        run(capsys, "render", "--in", pair_file, "--out", out_path)
        assert open(out_path, "rb").read() == first

    def test_render_options(self, capsys, table_file, tmp_path):
        out_path = str(tmp_path / "table.svg")
        rc, out, _ = run(
            capsys, "render", "--in", table_file, "--out", out_path,
            "--max-powers", "1", "--width", "200", "--height", "100", "--labels",
        )
        assert rc == 0
        assert as_dict(out)["glyphs"] == "1"
        text = open(out_path).read()
        assert 'width="200.000"' in text
        assert "screen-label" in text


class TestErrorPaths:
    def test_missing_file_is_parse_error(self, capsys, tmp_path):
        rc, _, err = run(capsys, "validate", "--in", str(tmp_path / "absent.ea"))
        assert rc == 2
        assert "error[parse]" in err

    def test_syntax_error(self, capsys, tmp_path):
        path = tmp_path / "broken.ea"
        path.write_text("{nope}")
        rc, _, err = run(capsys, "validate", "--in", str(path))
        assert rc == 2
        assert "error[parse]" in err

    def test_invalid_arrangement_blocks_analysis(self, capsys, tmp_path):
        path = tmp_path / "bad.ea"
        path.write_text(
            '{"version": 1, "factorization": [2], "entries": [{"bra": [1], "ket": [1], "re": 0.9}]}'
        )
        rc, _, err = run(capsys, "potentia", "--in", str(path))
        assert rc == 3
        assert "error[validation]" in err

    def test_out_of_range_index(self, capsys, tmp_path):
        path = tmp_path / "oob.ea"
        path.write_text(
            '{"version": 1, "factorization": [2], "entries": [{"bra": [3], "ket": [1], "re": 1.0}]}'
        )
        rc, _, err = run(capsys, "validate", "--in", str(path))
        assert rc == 4
        assert "error[dimension]" in err

    def test_overflow_value(self, capsys, tmp_path):
        path = tmp_path / "huge.ea"
        path.write_text(
            '{"version": 1, "factorization": [2], "entries": [{"bra": [1], "ket": [1], "re": 1e999}]}'
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
            '{"version": 1, "factorization": [2], "entries": [{"bra": [1], "ket": [1], "re": 1%s}]}' % ("0" * 400)
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


def test_module_entry_point(pair_file):
    proc = subprocess.run(
        [sys.executable, "-m", "qlab", "validate", "--in", pair_file],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "valid=true" in proc.stdout
