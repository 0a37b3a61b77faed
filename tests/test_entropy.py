import math
import random

import mpmath
import numpy as np
import pytest

from skewtab import lobachevsky, sigma, sigma_gradient
from skewtab.entropy import _COEF


def _oracle(theta: float) -> float:
    # half the order-2 Clausen function at doubled argument
    with mpmath.workdps(30):
        return float(mpmath.clsin(2, 2 * theta) / 2)


def test_lobachevsky_against_mpmath():
    rng = random.Random(17)
    pts = [rng.uniform(0.0, math.pi) for _ in range(200)]
    pts += [0.0, math.pi, math.pi / 2, math.pi / 3, math.pi / 6]
    # the sign fold at pi/2, and the ends of the range
    half = math.pi / 2
    pts += [math.nextafter(half, 0.0), math.nextafter(half, 4.0),
            half - 1e-9, half + 1e-9, 5e-324, 1e-300, 1e-9,
            math.nextafter(math.pi, 0.0), math.pi - 1e-9]
    for th in pts:
        assert abs(lobachevsky(th) - _oracle(th)) < 1e-12, th


def test_lobachevsky_special_values():
    assert lobachevsky(0.0) == 0.0
    assert abs(lobachevsky(math.pi)) < 1e-14
    assert abs(lobachevsky(math.pi / 2) - _oracle(math.pi / 2)) < 1e-13
    # reflection antisymmetry around pi/2
    for th in (0.3, 0.7, 1.1):
        assert abs(lobachevsky(math.pi - th) + lobachevsky(th)) < 1e-13


def test_lobachevsky_maximum_at_pi_over_6():
    # the maximum of the function sits at pi/6
    th = np.linspace(0.01, math.pi / 2, 500)
    vals = lobachevsky(th)
    assert abs(th[int(np.argmax(vals))] - math.pi / 6) < 0.01


def test_lobachevsky_vectorized():
    th = np.array([[0.1, 0.5], [1.0, 2.0]])
    vals = lobachevsky(th)
    assert vals.shape == (2, 2)
    assert abs(vals[0, 1] - lobachevsky(0.5)) < 1e-15
    with pytest.raises(ValueError):
        lobachevsky(-0.5)
    with pytest.raises(ValueError):
        lobachevsky(math.pi + 1e-6)
    for bad in (math.nan, np.array([0.1, math.nan]), math.inf):
        with pytest.raises(ValueError):
            lobachevsky(bad)


def test_sigma_symmetry_and_range():
    rng = random.Random(23)
    for _ in range(200):
        s = rng.uniform(0, 1)
        t = rng.uniform(0, 1 - s)
        v = sigma(s, t)
        assert v >= -1e-15
        assert abs(v - sigma(t, s)) < 1e-14
    assert sigma(0.0, 0.0) == 0.0
    assert sigma(1.0, 0.0) == 0.0
    for s, t in [(0.7, 0.7), (math.nan, 0.2), (0.2, math.nan),
                 (np.array([0.1, math.nan]), 0.2)]:
        with pytest.raises(ValueError):
            sigma(s, t)


def test_sigma_peak():
    peak = sigma(1 / 3, 1 / 3)
    assert abs(peak - 3 * lobachevsky(math.pi / 3) / math.pi) < 1e-13
    # decimal frozen from the mpmath Clausen oracle at 40 digits
    assert abs(peak - 0.32306594721945051409) < 1e-13


def test_sigma_concavity_sampling():
    rng = random.Random(31)
    for _ in range(300):
        a = np.array([rng.uniform(0, 1), 0.0])
        a[1] = rng.uniform(0, 1 - a[0])
        b = np.array([rng.uniform(0, 1), 0.0])
        b[1] = rng.uniform(0, 1 - b[0])
        m = (a + b) / 2
        assert sigma(*m) >= (sigma(*a) + sigma(*b)) / 2 - 1e-12


def test_gradient_matches_finite_difference():
    rng = random.Random(37)
    h = 1e-5
    checked = 0
    while checked < 100:
        s = rng.uniform(0.05, 0.9)
        t = rng.uniform(0.05, 0.9)
        if s + t > 0.95 or min(s, t, 1 - s - t) < 0.05:
            continue
        gs, gt = sigma_gradient(s, t)
        fs = (sigma(s + h, t) - sigma(s - h, t)) / (2 * h)
        ft = (sigma(s, t + h) - sigma(s, t - h)) / (2 * h)
        scale = max(1.0, abs(gs), abs(gt))
        assert abs(gs - fs) / scale < 1e-6
        assert abs(gt - ft) / scale < 1e-6
        checked += 1
    for s, t in [(0.0, 0.5), (0.6, 0.4), (math.nan, 0.2), (0.2, math.nan)]:
        with pytest.raises(ValueError):
            sigma_gradient(s, t)


def test_gradient_is_stationary_at_peak():
    gs, gt = sigma_gradient(1 / 3, 1 / 3)
    assert abs(gs) < 1e-12 and abs(gt) < 1e-12


def test_series_coefficients_within_one_ulp():
    # zeta(2m) / (m (2m+1) pi^(2m)), each rounded once from the exact value
    assert len(_COEF) == 32
    with mpmath.workdps(40):
        for m, c in enumerate(_COEF, 1):
            want = mpmath.zeta(2 * m) / (m * (2 * m + 1) * mpmath.pi ** (2 * m))
            assert abs(mpmath.mpf(float(c)) - want) <= math.ulp(c), m
