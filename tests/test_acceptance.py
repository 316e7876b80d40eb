"""Acceptance suite: one test per headline capability, each printing a
single [PASS]/[FAIL] line (visible with pytest -s or in captured output).
Every check runs at the library's documented tolerance."""

import xml.etree.ElementTree as ET
from contextlib import contextmanager

import numpy as np

import qlab
from qlab import (
    BasisTransformation,
    Bipartition,
    GeneralProjector,
    GlobalIntensiveValuation,
    configuration,
    extend_arrangement,
    read_arrangement,
    remove_screen,
    render_arrangement_svg,
    schmidt_decompose,
    schmidt_rank_profile,
    verify_additivity,
    verify_basis_invariance,
)

from helpers import (
    bell_state,
    four_screen_pair,
    ghz_state,
    loop_partial_trace,
    product_state,
    six_detector_certain,
    three_screen_pair,
    two_detector_table,
)

PAIR_FILE_TEXT = """{
  "version": 1,
  "factorization": [2, 2, 2, 2],
  "entries": [
    {"bra": [1, 2, 1, 2], "ket": [1, 2, 1, 2], "re": 0.5},
    {"bra": [2, 2, 2, 2], "ket": [2, 2, 2, 2], "re": 0.5}
  ]
}
"""

TABLE_FILE_TEXT = """{
  "version": 1,
  "factorization": [2],
  "entries": [
    {"bra": [1], "ket": [1], "re": 0.7},
    {"bra": [2], "ket": [2], "re": 0.3}
  ]
}
"""

CERTAIN_FILE_TEXT = """{
  "version": 1,
  "factorization": [6],
  "entries": [
    {"bra": [1], "ket": [1], "re": 1.0}
  ]
}
"""


@contextmanager
def criterion(name: str):
    try:
        yield
    except Exception:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def test_pair_reduction_and_extension(tmp_path):
    with criterion("pair arrangement: remove last screen, re-extend, recover exactly"):
        path = tmp_path / "pair.ea"
        path.write_text(PAIR_FILE_TEXT, encoding="utf-8")
        ea = read_arrangement(str(path))
        assert ea.shape.detector_counts == (2, 2, 2, 2)

        reduced = remove_screen(ea, 4)
        want = three_screen_pair()
        assert reduced.shape.detector_counts == (2, 2, 2)
        assert np.max(np.abs(reduced.alpha.entries - want.alpha.entries)) <= 1e-12

        restored = extend_arrangement(reduced, 2, [0.0, 1.0])
        assert np.array_equal(restored.alpha.entries, ea.alpha.entries)


def test_reference_potentia_tables(tmp_path):
    with criterion("reference potentia tables reproduced exactly from files"):
        table_path = tmp_path / "table.ea"
        table_path.write_text(TABLE_FILE_TEXT, encoding="utf-8")
        ea = read_arrangement(str(table_path))
        assert np.array_equal(ea.potentia_table(), np.array([0.7, 0.3]))

        certain_path = tmp_path / "certain.ea"
        certain_path.write_text(CERTAIN_FILE_TEXT, encoding="utf-8")
        certain = read_arrangement(str(certain_path))
        assert np.array_equal(
            certain.potentia_table(), np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        )


BASIS_TRIAL_SHAPES = [
    ((2,), None),
    ((3,), None),
    ((4,), (2, 2)),
    ((2, 2), (4,)),
    ((6,), (2, 3)),
    ((2, 3), (3, 2)),
    ((8,), (2, 2, 2)),
    ((2, 2, 2), (8,)),
    ((12,), (3, 4)),
    ((16,), (4, 4)),
    ((4, 4), (2, 2, 2, 2)),
    ((2, 2, 2, 2), (16,)),
    ((6, 6), (36,)),
    ((64,), (8, 8)),
    ((8, 8), (4, 4, 4)),
    ((4, 4, 4), (64,)),
]


def test_basis_invariance_suite():
    with criterion("basis invariance: 200 seeded trials, max residual <= 1e-8"):
        trials = 200
        worst = 0.0
        failures = 0
        for i in range(trials):
            counts, target_counts = BASIS_TRIAL_SHAPES[i % len(BASIS_TRIAL_SHAPES)]
            shape = configuration(*counts)
            target = configuration(*target_counts) if target_counts else None
            ea = qlab.random_arrangement(shape, 3000 + i)
            bt = BasisTransformation.random(shape, 6000 + i, target)
            report = verify_basis_invariance(ea, bt, seed=9000 + i)
            worst = max(worst, report.spectrum_residual, report.valuation_residual)
            failures += 0 if report.passed else 1
        assert failures == 0
        assert worst <= 1e-8


ROUND_TRIP_SHAPES = [
    (2,),
    (3,),
    (2, 2),
    (5,),
    (2, 3),
    (7,),
    (2, 2, 2),
    (3, 3),
    (16,),
    (4, 4),
    (16, 16),
    (64, 4),
]


def test_factorization_invariance_suite():
    with criterion("factorization invariance: 200 extend/remove round trips"):
        trials = 200
        worst_roundtrip = 0.0
        worst_marginal = 0.0
        largest = 0
        for i in range(trials):
            counts = ROUND_TRIP_SHAPES[i % len(ROUND_TRIP_SHAPES)]
            shape = configuration(*counts)
            largest = max(largest, shape.dimension)
            ancilla_dim = 2 + i % 3
            ea = qlab.random_arrangement(shape, 4000 + i)
            phi = qlab.random_state_vector(ancilla_dim, qlab.make_rng(8000 + i))
            extended = extend_arrangement(ea, ancilla_dim, phi)
            back = remove_screen(extended, extended.shape.num_screens)
            worst_roundtrip = max(
                worst_roundtrip, float(np.max(np.abs(back.alpha.entries - ea.alpha.entries)))
            )
            joint = extended.potentia_table().reshape(shape.dimension, ancilla_dim)
            base_gap = float(np.max(np.abs(joint.sum(axis=1) - ea.potentia_table())))
            ancilla_gap = float(np.max(np.abs(joint.sum(axis=0) - np.abs(phi) ** 2)))
            worst_marginal = max(worst_marginal, base_gap, ancilla_gap)
        assert largest == 256
        assert worst_roundtrip <= 1e-10
        assert worst_marginal <= 1e-12


def test_valuation_axioms():
    with criterion("valuation: unit total and orthogonal additivity, 100 families per dimension"):
        for dim in (2, 4, 8, 16, 64):
            shape = configuration(dim)
            for i in range(100):
                ea = qlab.random_arrangement(shape, 5000 + 101 * dim + i)
                giv = GlobalIntensiveValuation(ea)
                identity = GeneralProjector.identity(shape)
                assert abs(giv(identity) - 1.0) <= 1e-8
                mats = qlab.random_orthogonal_family(dim, 7000 + 101 * dim + i)
                family = [GeneralProjector.from_matrix(m, shape) for m in mats]
                report = verify_additivity(giv, family)
                assert report.passed
                assert report.residual <= 1e-8


def test_purity_equivalence():
    with criterion("purity: abstract and operational routes agree on 500 random arrangements"):
        shapes = [(2,), (2, 2), (3,), (2, 3), (4,), (2, 2, 2), (5,), (8,)]
        for i in range(500):
            shape = configuration(*shapes[i % len(shapes)])
            terms = 1 + i % 4
            ea = qlab.random_arrangement(shape, 10_000 + i, terms=terms)
            abstract = qlab.purity_abstract(ea)
            operational = qlab.purity_operational(ea)
            assert abstract.is_pure == operational.certain_power_exists
            if terms == 1:
                assert abstract.is_pure


def test_schmidt_oracle():
    with criterion("Schmidt: product ranks, paired-state coefficients, marginal spectra"):
        for counts in ((2, 2), (2, 3), (2, 2, 2), (3, 2, 2)):
            state, _ = product_state(counts, seed=sum(counts))
            profile = schmidt_rank_profile(state, configuration(*counts))
            assert set(profile.values()) == {1}

        inv = 1.0 / np.sqrt(2.0)
        bell = schmidt_decompose(bell_state(), configuration(2, 2), Bipartition((1,), (2,)))
        assert bell.rank == 2
        assert np.max(np.abs(bell.coefficients - inv)) <= 1e-9
        ghz = schmidt_decompose(ghz_state(3), configuration(2, 2, 2), Bipartition((1,), (2, 3)))
        assert ghz.rank == 2
        assert np.max(np.abs(ghz.coefficients[:2] - inv)) <= 1e-9

        for seed in range(25):
            shape = configuration(2, 2, 3)
            state = qlab.random_state_vector(shape.dimension, qlab.make_rng(seed))
            result = schmidt_decompose(state, shape, Bipartition((1,), (2, 3)))
            alpha = np.outer(state, state.conj())
            marginal = loop_partial_trace(alpha, shape.detector_counts, {2, 3})
            eigs = np.sort(np.linalg.eigvalsh(marginal))[::-1]
            squared = np.square(result.coefficients)
            assert np.max(np.abs(squared - eigs[: squared.size])) <= 1e-9


def test_sampler_statistics():
    with criterion("sampler: seeded determinism and binomial-range frequency"):
        ea = two_detector_table()
        draws = 100_000
        counts = qlab.sample_outcomes(ea, draws, seed=7)
        again = qlab.sample_outcomes(ea, draws, seed=7)
        assert counts == again
        frequency = counts[(1,)] / draws
        assert abs(frequency - 0.7) <= 3.0 * np.sqrt(0.21 / draws)


def test_rendering():
    with criterion("rendering: glyph census, well-formed XML, byte determinism"):
        pair_svg = render_arrangement_svg(four_screen_pair())
        root = ET.fromstring(pair_svg)
        polygons = [el for el in root.iter() if el.get("class") == "power"]
        assert len(polygons) == 2
        assert all(el.tag.endswith("polygon") for el in polygons)

        table_svg = render_arrangement_svg(two_detector_table())
        points = [el for el in ET.fromstring(table_svg).iter() if el.get("class") == "power"]
        assert len(points) == 2
        assert all(el.tag.endswith("circle") for el in points)
        assert [el.get("fill-opacity") for el in points] == ["0.7", "0.3"]

        certain_svg = render_arrangement_svg(six_detector_certain())
        ET.fromstring(certain_svg)
        assert render_arrangement_svg(four_screen_pair()) == pair_svg
        assert render_arrangement_svg(two_detector_table()) == table_svg
