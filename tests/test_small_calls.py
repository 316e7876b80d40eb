"""The fixed-cost routes of the small calls give the bits of the routes they replace.

A random arrangement sums its weighted rank-one terms into one accumulator
and is checked once, as a mixture; every joint tensor comes from one
broadcast kernel, tensor._kron, which gives rows of the product from rows of
either factor; and the O(N^2) result checks reduce through ndarray methods.
These tests compare each with the longer route by bytes or by float hex, count the checks a random arrangement makes, and count numpy's
Python-level reduction wrappers in one case of the many_small benchmark.
"""

import cProfile
import importlib.util
import itertools
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qlab
from qlab import DenseOperatorTensor, arrangement, configuration, tensor_product
from qlab.tensor import _kron

from helpers import loop_is_product_across, loop_random_arrangement


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    terms=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
    label=st.one_of(st.none(), st.text(alphabet="ab ", max_size=3)),
)
def test_random_arrangement_is_the_per_term_route_bit_for_bit(counts, seed, terms, label):
    shape = configuration(*counts)
    made = qlab.random_arrangement(shape, seed, terms=terms, label=label)
    oracle = loop_random_arrangement(shape, seed, terms=terms, label=label)
    assert made.alpha.entries.tobytes() == oracle.alpha.entries.tobytes()
    assert made.shape == oracle.shape and made.label == oracle.label


@pytest.mark.parametrize("terms", [1, 3])
def test_random_arrangement_is_checked_once(terms):
    shape = configuration(2, 3)
    with mock.patch.object(arrangement, "_structural_checks", wraps=arrangement._structural_checks) as spy:
        qlab.random_arrangement(shape, 7, terms=terms)
    assert spy.call_count == 1  # one check per term and one for the mixture made it terms + 1


def _complex(rng, *dims):
    return rng.normal(size=dims) + 1j * rng.normal(size=dims)


@pytest.mark.parametrize("counts_a, counts_b", [((1,), (1,)), ((1,), (3,)), ((2,), (1,)), ((2, 2), (3,)), ((3,), (2, 2, 2))])
def test_tensor_product_is_np_kron_bit_for_bit(counts_a, counts_b):
    rng = np.random.default_rng(len(counts_a) * 10 + len(counts_b))
    a = DenseOperatorTensor(configuration(*counts_a), _complex(rng, *(2 * [int(np.prod(counts_a))])))
    b = DenseOperatorTensor(configuration(*counts_b), _complex(rng, *(2 * [int(np.prod(counts_b))])))
    assert not (a.entries.flags.writeable or b.entries.flags.writeable)
    joint = tensor_product(a, b)
    assert joint.shape.detector_counts == counts_a + counts_b
    assert joint.entries.tobytes() == np.kron(a.entries, b.entries).tobytes()
    assert not joint.entries.flags.writeable


@pytest.mark.parametrize("layout", ["writable", "read-only", "fortran", "transposed", "strided"])
@pytest.mark.parametrize("n, m", [(1, 1), (1, 4), (4, 1), (3, 5), (5, 3)])
def test_kron_kernel_is_np_kron_bit_for_bit(n, m, layout):
    rng = np.random.default_rng(n * 10 + m)
    a, b = _complex(rng, n, n), _complex(rng, m, m)
    if layout == "read-only":
        a.setflags(write=False)
        b.setflags(write=False)
    elif layout == "fortran":
        a, b = np.asfortranarray(a), np.asfortranarray(b)
    elif layout == "transposed":
        a, b = a.T, b.T
    elif layout == "strided":
        a, b = _complex(rng, 2 * n, 2 * n)[::2, ::2], _complex(rng, 2 * m, 2 * m)[::2, ::2]
    product, whole = _kron(a, b), np.kron(a, b)
    assert product.shape == (n * m, n * m) and product.flags.writeable
    assert product.tobytes() == whole.tobytes()
    for i, (r0, r1) in itertools.product(range(n), itertools.combinations(range(m + 1), 2)):  # inside a row of a
        assert _kron(a[i : i + 1], b[r0:r1]).tobytes() == whole[i * m + r0 : i * m + r1].tobytes()
    for i0, i1 in itertools.combinations(range(n + 1), 2):  # whole rows of a
        assert _kron(a[i0:i1], b).tobytes() == whole[i0 * m : i1 * m].tobytes()


@settings(max_examples=25, deadline=None)
@given(counts=st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=4), seed=st.integers(0, 2**32 - 1))
def test_product_test_is_the_matrix_route_bit_for_bit(counts, seed):
    rng = qlab.make_rng(seed)
    shape = configuration(*counts)
    mixed = qlab.random_arrangement(shape, rng)
    product = qlab.extend_arrangement(
        qlab.random_arrangement(configuration(*counts[:-1]), rng), counts[-1], qlab.random_state_vector(counts[-1], rng)
    )
    n = len(counts)
    for ea in (mixed, product):
        for left in itertools.chain.from_iterable(itertools.combinations(range(1, n + 1), r) for r in range(1, n)):
            cut = qlab.Bipartition.split(left, n)
            (passed, residual), (want_passed, want) = qlab.is_product_across(ea, cut), loop_is_product_across(ea, cut)
            assert passed is want_passed and residual.hex() == want.hex(), cut


def _full_residuals(a):
    """hermitian, trace and diagonal residuals by the full expressions."""
    diag = a.diagonal()
    with np.errstate(over="ignore", invalid="ignore"):
        return (
            float(np.max(np.abs(a - a.conj().T))),
            float(abs(np.trace(a) - 1.0)),
            max(
                float(np.max(np.abs(diag.imag))),
                float(np.max(np.maximum(-diag.real, 0.0))),
                float(np.max(np.maximum(diag.real - 1.0, 0.0))),
            ),
        )


@pytest.mark.parametrize("kind", ["valid", "random", "huge", "huge-diagonal"])
@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_structural_residuals_are_the_full_expressions_bit_for_bit(n, kind):
    rng = np.random.default_rng(n)
    if kind == "valid":
        a = qlab.random_arrangement(configuration(n), n, terms=2).alpha.entries
    elif kind == "random":
        a = _complex(rng, n, n)
    else:  # entries of +-1.7e308: differences overflow to inf, so do sums along the diagonal
        a = rng.choice([-1.7e308, 1.7e308], (n, n)) + 1j * rng.choice([-1.7e308, 1.7e308], (n, n))
        if kind == "huge-diagonal":
            a = np.diag(a.diagonal())
    checks = arrangement._structural_checks(a)
    assert [c.name for c in checks] == ["hermitian", "trace", "diagonal"]
    for check, want in zip(checks, _full_residuals(a)):
        assert check.residual.hex() == want.hex(), check.name
        assert check.passed == (want <= check.tolerance)
    assert all(c.passed for c in checks) == (kind == "valid")
    if kind == "huge":
        assert checks[0].residual == np.inf


def test_a_many_small_case_makes_no_wrapped_reduction(monkeypatch):
    """np.max, np.all, np.sum and np.any dispatch through fromnumeric._wrapreduction;
    ndarray methods and ufunc reductions skip it, with the same bits."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))  # workloads imports its sibling fixtures
    spec = importlib.util.spec_from_file_location("workloads_under_test", perfbench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks its module up there
    spec.loader.exec_module(workloads)
    case = workloads.ManySmall(1).make_input(0)[-1]
    profile = cProfile.Profile()
    profile.runcall(workloads.ManySmall._one, case)
    profile.create_stats()
    calls = {(Path(path).name, name): count for (path, _, name), (_, count, *_) in profile.stats.items()}
    assert calls[("arrangement.py", "_structural_checks")] > 0  # the case reached qlab
    assert calls.get(("fromnumeric.py", "_wrapreduction"), 0) == 0
