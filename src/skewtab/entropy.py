"""The log-sine integral and the lozenge entropy of a slope.

lobachevsky(theta) = -integral of log|2 sin t| dt from 0 to theta, here
through one pass of its power series, summed by Horner's rule in theta^2,
over angles folded into [0, pi/2] by the reflection
Lambda(pi - theta) = -Lambda(theta).  The series coefficients
zeta(2m) / (m (2m+1) pi^(2m)) are exact rationals, T_m / ((4^m - 1) (2m+1)!)
with T_m the tangent numbers (B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1))),
each rounded once to a float.  Absolute accuracy is well below 1e-10
across [0, pi].

sigma(s, t) is the entropy per unit area of lozenge tilings with type
frequencies (s, t, 1 - s - t): the sum of Lambda at the three rescaled
angles, over pi.  It vanishes at the frozen corners and is concave on the
triangle s, t >= 0, s + t <= 1.
"""
from __future__ import annotations

import math

import numpy as np

_NSERIES = 32


def _tangent_numbers(n: int) -> list[int]:
    """Tangent numbers T_1..T_n (1, 2, 16, 272, ...), by an integer recurrence.

    T_m is the coefficient of x^(2m-1) / (2m-1)! in tan x; the recurrence
    is Knuth and Buckholtz's (Math. Comp. 21, 1967).
    """
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


# theta (1 - log 2 theta) + sum_m zeta(2m)/(m (2m+1)) (theta/pi)^(2m) theta;
# int / int is correctly rounded, so each coefficient is the nearest float
_COEF = np.array([
    tm / ((4 ** m - 1) * math.factorial(2 * m + 1))
    for m, tm in enumerate(_tangent_numbers(_NSERIES), 1)
])


def _series_half(theta: np.ndarray) -> np.ndarray:
    """Series evaluation on [0, pi/2] by Horner's rule; exact 0 at 0."""
    t2 = theta * theta
    acc = np.full_like(theta, _COEF[-1])
    for c in _COEF[-2::-1]:
        acc *= t2
        acc += c
    log2t = np.log(2.0 * theta, out=np.zeros_like(theta), where=theta > 0.0)
    return theta * (1.0 - log2t) + theta * t2 * acc


def lobachevsky(theta):
    """Lambda(theta) on [0, pi], scalar or array, accurate to about 1e-13."""
    arr = np.asarray(theta, dtype=float)
    a = np.atleast_1d(arr)
    # one reduction, and NaN fails both comparisons
    if not np.all((a >= -1e-12) & (a <= math.pi + 1e-12)):
        raise ValueError("lobachevsky is defined here on [0, pi] only")
    clipped = np.clip(a, 0.0, math.pi)
    flip = clipped > math.pi / 2
    vals = _series_half(np.where(flip, math.pi - clipped, clipped))
    np.negative(vals, out=vals, where=flip)
    if arr.ndim == 0:
        return float(vals[0])
    return vals.reshape(arr.shape)


def sigma(s, t):
    """Entropy per unit area at lozenge frequencies (s, t, 1 - s - t).

    Arguments may be scalars or arrays; points outside the frequency
    triangle raise ValueError.
    """
    s_arr = np.asarray(s, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    u_arr = 1.0 - s_arr - t_arr
    if not np.all((s_arr >= -1e-12) & (t_arr >= -1e-12) & (u_arr >= -1e-12)):
        raise ValueError("frequencies must satisfy s, t >= 0 and s + t <= 1")
    val = (
        lobachevsky(np.clip(s_arr, 0, 1) * math.pi)
        + lobachevsky(np.clip(t_arr, 0, 1) * math.pi)
        + lobachevsky(np.clip(u_arr, 0, 1) * math.pi)
    ) / math.pi
    if s_arr.ndim == 0 and t_arr.ndim == 0:
        return float(val)
    return val


def sigma_gradient(s: float, t: float) -> tuple[float, float]:
    """Partial derivatives of sigma at an interior point of the triangle."""
    u = 1.0 - s - t
    if not (s > 0 and t > 0 and u > 0):  # NaN fails too
        raise ValueError("gradient needs an interior point")
    return (
        math.log(math.sin(math.pi * u) / math.sin(math.pi * s)),
        math.log(math.sin(math.pi * u) / math.sin(math.pi * t)),
    )
