import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustae.errors import ParameterError
from robustae.linalg import frobenius_norm
from robustae.prox import soft_threshold


def grid_prox_l1(x: float, lam: float) -> float:
    """Oracle: minimize 0.5*(z-x)^2 + lam*|z| on a 1e-6 grid over [-2, 2].

    The objective is convex in z, so a coarse scan brackets the fine-grid
    argmin within one coarse cell; refining there returns the same point
    the full fine grid would.
    """
    coarse = np.arange(-2.0, 2.0 + 1e-3, 1e-3)
    zc = coarse[np.argmin(0.5 * (coarse - x) ** 2 + lam * np.abs(coarse))]
    fine = np.arange(max(-2.0, zc - 2e-3), min(2.0, zc + 2e-3) + 1e-6, 1e-6)
    return float(fine[np.argmin(0.5 * (fine - x) ** 2 + lam * np.abs(fine))])


def test_soft_zero_lambda_is_identity():
    x = np.array([-1.5, 0.0, 0.3, 2.0])
    assert np.array_equal(soft_threshold(x, 0.0), x)


def test_soft_hand_values():
    assert soft_threshold(np.array(0.5), 0.1) == pytest.approx(0.4)
    assert soft_threshold(np.array(-0.05), 0.1) == 0.0


def test_soft_full_shrinkage():
    x = np.array([0.3, -0.7, 0.1])
    assert np.all(soft_threshold(x, 0.7) == 0.0)


def test_soft_negative_lambda_rejected():
    with pytest.raises(ParameterError):
        soft_threshold(np.zeros(2), -0.1)


def test_soft_matches_grid_oracle_sample():
    rng = np.random.default_rng(123)
    for _ in range(50):
        x = float(rng.uniform(-1.8, 1.8))
        lam = float(rng.uniform(0.0, 1.0))
        assert soft_threshold(np.array(x), lam) == pytest.approx(
            grid_prox_l1(x, lam), abs=1e-5
        )


@given(seed=st.integers(0, 2**32 - 1), lam=st.floats(0.0, 3.0))
@settings(max_examples=50, deadline=None)
def test_soft_nonexpansive(seed, lam):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(20)
    y = rng.standard_normal(20)
    lhs = frobenius_norm(soft_threshold(x, lam) - soft_threshold(y, lam))
    assert lhs <= frobenius_norm(x - y) + 1e-12


@given(
    seed=st.integers(0, 2**32 - 1),
    lam1=st.floats(0.0, 2.0),
    lam2=st.floats(0.0, 2.0),
)
@settings(max_examples=50, deadline=None)
def test_soft_shrinkage_monotone_in_lambda(seed, lam1, lam2):
    lo, hi = sorted([lam1, lam2])
    x = np.random.default_rng(seed).standard_normal(20)
    assert np.all(np.abs(soft_threshold(x, hi)) <= np.abs(soft_threshold(x, lo)) + 1e-15)


@given(seed=st.integers(0, 2**32 - 1), lam=st.floats(0.0, 2.0))
@settings(max_examples=50, deadline=None)
def test_soft_sign_preservation(seed, lam):
    x = np.random.default_rng(seed).standard_normal(20)
    assert np.all(soft_threshold(x, lam) * x >= 0.0)



def _awkward_values(seed: int) -> np.ndarray:
    """Normal draws mixed with signed zeros, subnormals and huge values."""
    rng = np.random.default_rng(seed)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e308, -1.7e308,
                        np.finfo(float).max, -np.finfo(float).max])
    x = np.concatenate([rng.standard_normal(200) * 10.0 ** rng.uniform(-5, 5, 200), special])
    return rng.permutation(x).reshape(21, 10)


def test_soft_leaves_its_input_untouched():
    x = _awkward_values(0)
    before = x.copy()
    soft_threshold(x, 0.5)
    assert x.tobytes() == before.tobytes()


@pytest.mark.parametrize("lam", [0.0, 5e-324, 1e-3, 0.05, 1.0, 1e300])
@pytest.mark.parametrize("seed", [1, 2])
def test_soft_bit_equal_to_the_written_formula(seed, lam):
    # compared as integers, so -0.0 and +0.0 differ: copysign would give -0.0
    # for x = -0.0, where sign(-0.0) * 0.0 gives +0.0
    x = _awkward_values(seed)
    want = np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)
    got = soft_threshold(x, lam)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
