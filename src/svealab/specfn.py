"""Special functions underpinning the closed-form solution catalog.

Parameter convention: every Jacobi elliptic routine here takes the PARAMETER
m = k**2 in its second slot, written sn(u|m).  This matches Abramowitz &
Stegun chapter 16 and scipy's ``ellipj``, and does NOT match libraries whose
second argument is the modulus k.  All catalog formulas assume this slot
convention; mixing the two is the classic source of silently-wrong elliptic
evaluations.

Arbitrary real m is supported.  scipy covers 0 <= m <= 1; m < 0 goes through
the negative-parameter transformation and m > 1 through the reciprocal-
parameter transformation (A&S 16.10, 16.11), both of which keep sn, cn, dn
real on the real axis.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Union

import numpy as np
from scipy import special as _sp

from .errors import DomainError, PoleError

__all__ = [
    "EllipticTriple",
    "jacobi_elliptic",
    "jacobi_dc",
    "bessel_j1",
    "hyp0f1_two",
    "DC_POLE_THRESHOLD",
]

ArrayLike = Union[float, np.ndarray]

# |cn| below this is treated as "on a pole" of dc = dn/cn.
DC_POLE_THRESHOLD = 1e-10


class EllipticTriple(NamedTuple):
    sn: ArrayLike
    cn: ArrayLike
    dn: ArrayLike


def _checked_array(u, name: str) -> tuple[np.ndarray, bool]:
    arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite, got {u!r}")
    return arr, arr.ndim == 0


def jacobi_elliptic(u: ArrayLike, m: float) -> EllipticTriple:
    """sn, cn, dn of argument u and parameter m (= k**2), any finite real m.

    u may be a scalar or ndarray; m is a scalar.  Outside [0, 1] the value is
    produced by the real A&S transformations, so e.g. sn(u|-1) is the real
    bounded function with |sn| <= 1 rather than an analytic continuation off
    the real axis.
    """
    uu, scalar = _checked_array(u, "u")
    m = float(m)
    if not math.isfinite(m):
        raise DomainError(f"m must be finite, got {m!r}")

    if 0.0 <= m <= 1.0:
        s, c, d, _ = _sp.ellipj(uu, m)
    elif m < 0.0:
        # A&S 16.10: m < 0 maps to mu = -m/(1-m) in (0,1).
        mu = -m / (1.0 - m)
        v = uu * math.sqrt(1.0 - m)
        s, c, d, _ = _sp.ellipj(v, mu)
        s, c, d = s / (d * math.sqrt(1.0 - m)), c / d, 1.0 / d
    else:
        # A&S 16.11: m > 1 maps to mu = 1/m; sn and the roles of cn/dn swap scale.
        mu = 1.0 / m
        v = uu * math.sqrt(m)
        s, c, d, _ = _sp.ellipj(v, mu)
        s, c, d = s / math.sqrt(m), d, c

    if scalar:
        return EllipticTriple(float(s), float(c), float(d))
    return EllipticTriple(s, c, d)


def jacobi_dc(u: ArrayLike, m: float) -> ArrayLike:
    """dc(u|m) = dn/cn, raising PoleError when any point sits on a pole.

    Poles are the zeros of cn; the error names the first offending u in
    row-major order.
    """
    trip = jacobi_elliptic(u, m)
    cn = np.asarray(trip.cn, dtype=float)
    if m < 1.0:
        bad = np.abs(cn) < DC_POLE_THRESHOLD
        if np.any(bad):
            loc = float(np.asarray(u, dtype=float)[bad].flat[0])
            raise PoleError(f"dc(u|m={m}) evaluated within {DC_POLE_THRESHOLD} of a pole: "
                            f"u = {loc}")
    return np.asarray(trip.dn) / np.asarray(trip.cn) if cn.ndim else trip.dn / trip.cn


def bessel_j1(z: ArrayLike) -> ArrayLike:
    """Bessel J1(z) for real z, scalar or ndarray.

    Backed by the Cephes implementation (series for small z, asymptotic form
    for large z); absolute accuracy comfortably below 1e-13 for |z| <= 50.
    """
    zz, scalar = _checked_array(z, "z")
    out = _sp.j1(zz)
    return float(out) if scalar else out


def hyp0f1_two(z: float) -> float:
    """Confluent limit 0F1(;2;z) by direct power series with adaptive truncation.

    0F1(;2;z) = sum_k z^k / (k! (k+1)!), entire in z.  Related to J1 through
    J1(x) = (x/2) * 0F1(;2;-x**2/4); the test suite leans on that identity.
    """
    z = float(z)
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z!r}")
    term = 1.0
    total = 1.0
    peak = 1.0
    for k in range(500):
        term *= z / ((k + 1) * (k + 2))
        total += term
        peak = max(peak, abs(total))
        if abs(term) < 1e-17 * peak:
            return total
    raise DomainError(f"0F1(;2;{z}) series did not converge in 500 terms")
