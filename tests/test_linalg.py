"""Oracle and property tests for the dense linear algebra helpers."""

import re

import numpy as np
import pytest

from zakbench.linalg import (
    blas_threads,
    gram_matrix,
    rank_and_span,
    single_threaded_blas,
)


def test_gram_matrix_dft_orthogonality_oracle():
    # In-window sampled exponentials are exactly orthonormal under 1/N.
    N = 64
    t = (np.arange(N) + 0.5) / N
    rows = np.array([np.exp(2j * np.pi * n * t) for n in range(-5, 6)])
    gram = gram_matrix(rows) / N
    assert np.max(np.abs(gram - np.eye(11))) < 1e-13


def test_gram_matrix_hand_value_and_bounds():
    v = np.array([1.0, 0.0])
    gram = gram_matrix(np.array([v, v]))
    assert np.allclose(gram, np.ones((2, 2)))


def test_gram_matrix_empty_family():
    message = "a family must be a nonempty 2-D array with vectors as rows, got shape (0, 4)"
    with pytest.raises(ValueError, match=re.escape(message)):
        gram_matrix(np.zeros((0, 4)))


def test_rank_known_values():
    assert rank_and_span(np.eye(4)) == 4
    dependent = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    assert rank_and_span(dependent) == 2
    assert rank_and_span(np.zeros((3, 3))) == 0


def test_rank_tolerance_cutoff():
    # A vector within 1e-12 of the span counts as dependent at the fixed relative tolerance 1e-10.
    base = np.array([[1.0, 0.0], [0.0, 1e-12]])
    assert rank_and_span(base) == 1


def test_rank_invariant_under_unitary_mixing():
    rng = np.random.default_rng(7)
    for _ in range(100):
        count = int(rng.integers(2, 7))
        dim = int(rng.integers(count, 9))
        fam = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
        r = rank_and_span(fam)
        q, _ = np.linalg.qr(rng.standard_normal((count, count)) + 1j * rng.standard_normal((count, count)))
        assert rank_and_span(q @ fam) == r


def test_rank_empty_family():
    message = "a family must be a nonempty 2-D array with vectors as rows, got shape (0, 3)"
    with pytest.raises(ValueError, match=re.escape(message)):
        rank_and_span(np.zeros((0, 3)))


@pytest.mark.parametrize("entry", [gram_matrix, rank_and_span])
@pytest.mark.parametrize("shape", [(3,), (2, 3, 3), (3, 0)], ids=["1d", "3d", "empty_vectors"])
def test_family_helpers_refuse_malformed_families(entry, shape):
    # The empty-family shape (0, n) has its own tests above.
    message = f"a family must be a nonempty 2-D array with vectors as rows, got shape {shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        entry(np.ones(shape))


def test_single_threaded_blas_pins_and_restores():
    before = blas_threads()
    with pytest.raises(RuntimeError):
        with single_threaded_blas() as pinned:
            assert pinned == (before is not None)
            assert blas_threads() == (1 if pinned else None)
            raise RuntimeError("leaves the block")
    assert blas_threads() == before
