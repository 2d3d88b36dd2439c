"""Wave-equation families and their envelope reductions, one record each.

family.law states what each equation reads and says.  Four second-order
field equations box(phi) + N(phi) = 0, box = d_tt - d_xx (D = 1):

    cubic:          N = lambda*phi**3                       reads lambda
    double well:    N = -mass**2*phi + lambda*phi**3         reads lambda, mass
    cubic-quintic:  N = -sigma*phi**3 + lambda*phi**5        reads lambda, sigma
    sine-Gordon:    N = lambda**2*sin(phi)                   reads lambda

and four envelope equations i*psi_t + D*psi_xx - V(|psi|)*psi = 0:

    cubic NLS:          V = (lambda/omega)*|psi|**2,                  D = 1/omega
    double-well NLS:    V = (lambda/omega)*(|psi|**2 - mass**2/lambda), D = 1/omega
    cubic-quintic NLS:  V = -sigma*|psi|**2 + lambda*|psi|**4,        D = 1
    Bessel NLS:         V = (lambda**2/omega)*J1(|psi|)/|psi|,        D = 1/(2*omega)

Each reads lambda and whichever of omega, mass and sigma its V and D name;
cubic-quintic NLS reads no omega.

Only the Bessel rate is bounded: sup|V| = |lambda**2/omega|/2, as
|J1(z)/z| <= 1/2 (A&S 9.1.62).  A [model] mapping holds family, lambda and the
couplings its family reads, nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Union

import numpy as np
from scipy import special as _sp

from .errors import DomainError, FamilyMismatchError

__all__ = [
    "Family",
    "FamilyLaw",
    "ModelSpec",
    "kg_force",
    "nls_nonlinear_phase_rate",
    "BESSEL_RATE_CUTOVER",
]

ArrayLike = Union[float, complex, np.ndarray]

# Below this |psi| the Bessel rate switches to its even Taylor series
# 1/2 - z**2/16, avoiding the 0/0 at the origin.  The next term, z**4/384, is
# under 2.7e-19 there: less than half an ulp of the sum, so it never counts.
BESSEL_RATE_CUTOVER = 1e-4


class Family(Enum):
    CUBIC_KG = "cubic_kg"
    DOUBLE_WELL_KG = "double_well_kg"
    CUBIC_QUINTIC_KG = "cubic_quintic_kg"
    SINE_GORDON_KG = "sine_gordon_kg"
    CUBIC_NLS = "cubic_nls"
    DOUBLE_WELL_NLS = "double_well_nls"
    CUBIC_QUINTIC_NLS = "cubic_quintic_nls"
    BESSEL_NLS = "bessel_nls"

    @property
    def law(self) -> "FamilyLaw":
        return _LAWS[self]

    @property
    def is_nls(self) -> bool:
        return self.law.envelope


def _unbounded(model: "ModelSpec") -> float:
    return math.inf


class FamilyLaw(NamedTuple):
    """One family's equation: term is N(model, phi) for a field family; for an
    envelope one, term(model) binds the model's constants into rate(amp, out),
    which writes V(amp) into out and returns it.  amp must be real, finite and
    >= 0, out a float array of its shape.  rate_bound is sup|V|."""

    envelope: bool
    couplings: tuple[str, ...]  # ModelSpec fields read beyond lam
    dispersion: Callable[["ModelSpec"], float]
    term: Callable
    rate_bound: Callable[["ModelSpec"], float] = _unbounded


@dataclass(frozen=True)
class ModelSpec:
    """One concrete member of a family: family tag plus coupling constants.

    lam is the self-coupling (lambda), mass the double-well m_s, sigma the
    cubic-quintic cubic coupling, omega the carrier frequency of the envelope
    reduction.  The family's law says which of them its equation reads.
    """

    family: Family
    lam: float = 1.0
    mass: float = 0.0
    sigma: float = 0.0
    omega: float = 1.0

    def __post_init__(self):
        if self.family.is_nls and not self.omega > 0.0:
            raise DomainError(f"omega must be > 0 for NLS families, got {self.omega}")
        for key, value in (("lambda", self.lam), ("mass", self.mass), ("sigma", self.sigma),
                           ("omega", self.omega)):
            if not math.isfinite(value):
                raise DomainError(f"{key} must be finite, got {value!r}")
        law = self.family.law
        try:  # binding squares lambda (Bessel) or mass and divides by lambda (double well)
            bound = law.rate_bound(self)
            if law.envelope:
                law.term(self)
        except OverflowError as err:
            key, value = ("mass", self.mass) if "mass" in law.couplings else ("lambda", self.lam)
            raise DomainError(f"{key}={value!r} is too large: {key}**2 overflows") from err
        except ZeroDivisionError as err:
            raise DomainError(f"lambda must be nonzero for {self.family.value}, "
                              f"got {self.lam!r}") from err
        # 1/omega and lambda**2/omega overflow to inf for a tiny omega
        if not math.isfinite(self.dispersion):
            raise DomainError(f"omega={self.omega!r} is too small: the dispersion "
                              f"D={self.dispersion!r} is not finite")
        if law.rate_bound is not _unbounded and not math.isfinite(bound):
            raise DomainError(f"omega={self.omega!r} is too small for lambda={self.lam!r}: "
                              "the bound lambda**2/omega overflows")

    @property
    def dispersion(self) -> float:
        """D, the d_xx coefficient the reduction fixes for the family."""
        return self.family.law.dispersion(self)

    @classmethod
    def from_mapping(cls, data: dict) -> "ModelSpec":
        """The model of a [model] mapping, which holds family, lambda and the
        couplings of the family's law; any other key is a DomainError naming it."""
        try:
            family = Family(str(data["family"]).strip().lower())
        except (KeyError, ValueError) as exc:
            raise DomainError(f"needs a family, one of {', '.join(f.value for f in Family)}; "
                              f"got {data!r}") from exc
        keys = {"family", "lambda", *family.law.couplings}
        extra = sorted(set(data) - keys)
        if extra:
            raise DomainError(f"{family.value} does not read {', '.join(extra)}; "
                              f"expected {', '.join(sorted(keys))}")
        values = {}
        for key, raw in data.items():
            if key == "family":
                continue
            try:
                values["lam" if key == "lambda" else key] = float(raw)
            except ValueError as exc:
                raise DomainError(f"{key} must be a number, got {raw!r}") from exc
        return cls(family, **values)


def _cubic_rate(m: ModelSpec) -> Callable:
    c = m.lam / m.omega
    return lambda amp, out: np.multiply(c, np.square(amp, out=out), out=out)


def _double_well_rate(m: ModelSpec) -> Callable:
    c, shift = m.lam / m.omega, m.mass**2 / m.lam
    return lambda amp, out: np.multiply(
        c, np.subtract(np.square(amp, out=out), shift, out=out), out=out)


def _cubic_quintic_rate(m: ModelSpec) -> Callable:
    lam, quadratic = m.lam, -m.sigma

    def rate(amp, out):
        # lambda*|psi|**4 in place; the sigma term is the one temporary
        np.multiply(lam, np.power(amp, 4, out=out), out=out)
        return np.add(quadratic * np.square(amp), out, out=out)
    return rate


def _bessel_rate(m: ModelSpec) -> Callable:
    c = m.lam**2 / m.omega

    def rate(amp, out):
        # J1(z)/z.  When some z is under the cutover, those entries, including
        # any 0/0 at z = 0, are overwritten by the series.
        _sp.j1(amp, out=out)
        if amp.min(initial=math.inf) >= BESSEL_RATE_CUTOVER:
            np.divide(out, amp, out=out)
        else:
            with np.errstate(invalid="ignore"):
                np.divide(out, amp, out=out)
            small = amp < BESSEL_RATE_CUTOVER
            z = amp[small]
            out[small] = 0.5 - z * z / 16.0
        return np.multiply(c, out, out=out)
    return rate


_LAWS: dict[Family, FamilyLaw] = {
    Family.CUBIC_KG: FamilyLaw(False, (), lambda m: 1.0,
                               lambda m, phi: m.lam * phi**3),
    Family.DOUBLE_WELL_KG: FamilyLaw(False, ("mass",), lambda m: 1.0,
                                     lambda m, phi: -m.mass**2 * phi + m.lam * phi**3),
    Family.CUBIC_QUINTIC_KG: FamilyLaw(False, ("sigma",), lambda m: 1.0,
                                       lambda m, phi: -m.sigma * phi**3 + m.lam * phi**5),
    Family.SINE_GORDON_KG: FamilyLaw(False, (), lambda m: 1.0,
                                     lambda m, phi: m.lam**2 * np.sin(phi)),
    Family.CUBIC_NLS: FamilyLaw(True, ("omega",), lambda m: 1.0 / m.omega, _cubic_rate),
    Family.DOUBLE_WELL_NLS: FamilyLaw(True, ("mass", "omega"), lambda m: 1.0 / m.omega,
                                      _double_well_rate),
    Family.CUBIC_QUINTIC_NLS: FamilyLaw(True, ("sigma",), lambda m: 1.0, _cubic_quintic_rate),
    Family.BESSEL_NLS: FamilyLaw(True, ("omega",), lambda m: 1.0 / (2.0 * m.omega),
                                 _bessel_rate,
                                 rate_bound=lambda m: abs(m.lam**2 / m.omega) / 2.0),
}


def kg_force(model: ModelSpec, phi: ArrayLike) -> ArrayLike:
    """The N(phi) of box(phi) + N(phi) = 0 for the model's KG family.

    phi may be complex (two catalog entries are purely imaginary); NLS
    families are rejected with FamilyMismatchError.
    """
    law = model.family.law
    if law.envelope:
        raise FamilyMismatchError(f"kg_force needs a KG family, got {model.family.value}")
    return law.term(model, phi)


def nls_nonlinear_phase_rate(model: ModelSpec, amplitude: ArrayLike) -> ArrayLike:
    """V(|psi|), the amplitude-dependent phase rotation rate of the envelope equation.

    Vectorized over amplitude; amplitudes must be real and >= 0.
    """
    amp = np.asarray(amplitude, dtype=float)
    lo, hi = amp.min(initial=math.inf), amp.max(initial=0.0)
    if not (lo >= 0.0 and hi < math.inf):  # NaN fails both comparisons
        raise DomainError(f"amplitude must be {'>= 0' if np.all(np.isfinite(amp)) else 'finite'}")
    law = model.family.law
    if not law.envelope:
        raise FamilyMismatchError(
            f"nls_nonlinear_phase_rate needs an NLS family, got {model.family.value}")
    out = law.term(model)(amp, np.empty_like(amp))
    return float(out) if amp.ndim == 0 else out

