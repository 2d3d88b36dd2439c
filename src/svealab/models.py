"""Wave-equation families and their envelope reductions.

Four second-order field equations, written box(phi) + N(phi) = 0 with
box = d_tt - d_xx:

    cubic:          N = lambda*phi**3
    double well:    N = -mass**2*phi + lambda*phi**3
    cubic-quintic:  N = -sigma*phi**3 + lambda*phi**5
    sine-Gordon:    N = lambda**2*sin(phi)

and four first-order envelope equations, written
i*psi_t + D*psi_xx - V(|psi|)*psi = 0 with the family-specific amplitude-
dependent phase rate V and dispersion coefficient D fixed by the reduction:

    cubic NLS:          V = (lambda/omega)*|psi|**2,                  D = 1/omega
    double-well NLS:    V = (lambda/omega)*(|psi|**2 - mass**2/lambda), D = 1/omega
    cubic-quintic NLS:  V = -sigma*|psi|**2 + lambda*|psi|**4,        D = 1
    Bessel NLS:         V = (lambda**2/omega)*J1(|psi|)/|psi|,        D = 1/(2*omega)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Sequence, Union

import numpy as np
from scipy import special as _sp

from .errors import DomainError, FamilyMismatchError
from .specfn import bessel_j1

__all__ = [
    "Family",
    "ModelSpec",
    "KappaSample",
    "kg_force",
    "nls_nonlinear_phase_rate",
    "kappa_curve",
    "BESSEL_RATE_CUTOVER",
]

ArrayLike = Union[float, complex, np.ndarray]

# Below this |psi| the Bessel rate switches to its even Taylor series
# 1/2 - z**2/16 + z**4/384 to avoid the 0/0 at the origin.
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
    def is_nls(self) -> bool:
        return self in NLS_FAMILIES

    @property
    def is_kg(self) -> bool:
        return not self.is_nls


KG_FAMILIES = frozenset(
    {Family.CUBIC_KG, Family.DOUBLE_WELL_KG, Family.CUBIC_QUINTIC_KG, Family.SINE_GORDON_KG}
)
NLS_FAMILIES = frozenset(
    {Family.CUBIC_NLS, Family.DOUBLE_WELL_NLS, Family.CUBIC_QUINTIC_NLS, Family.BESSEL_NLS}
)


def _derived_dispersion(family: Family, omega: float) -> float:
    if family in (Family.CUBIC_NLS, Family.DOUBLE_WELL_NLS):
        return 1.0 / omega
    if family is Family.BESSEL_NLS:
        return 1.0 / (2.0 * omega)
    # cubic-quintic reduction carries a unit Laplacian coefficient; KG families
    # use D only as the d_xx coefficient of the box operator.
    return 1.0


@dataclass(frozen=True)
class ModelSpec:
    """One concrete member of a family: family tag plus coupling constants.

    lam is the self-coupling (lambda), mass the double-well m_s, sigma the
    cubic-quintic cubic coupling, omega the carrier frequency of the envelope
    reduction.  dispersion defaults to the value the reduction fixes for the
    family and normally should not be passed.
    """

    family: Family
    lam: float = 1.0
    mass: float = 0.0
    sigma: float = 0.0
    omega: float = 1.0
    dispersion: float = field(default=math.nan)

    def __post_init__(self):
        if self.family.is_nls and not self.omega > 0.0:
            raise DomainError(f"omega must be > 0 for NLS families, got {self.omega}")
        for name in ("lam", "mass", "sigma", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if math.isnan(self.dispersion):
            object.__setattr__(self, "dispersion", _derived_dispersion(self.family, self.omega))
        elif not math.isfinite(self.dispersion):
            raise DomainError("dispersion must be finite")

    def to_mapping(self) -> dict[str, str]:
        """Flat key-value form for run-config files."""
        out = {"family": self.family.value, "lambda": repr(self.lam), "omega": repr(self.omega)}
        if self.family in (Family.DOUBLE_WELL_KG, Family.DOUBLE_WELL_NLS):
            out["mass"] = repr(self.mass)
        if self.family in (Family.CUBIC_QUINTIC_KG, Family.CUBIC_QUINTIC_NLS):
            out["sigma"] = repr(self.sigma)
        return out

    @classmethod
    def from_mapping(cls, data: dict) -> "ModelSpec":
        try:
            family = Family(str(data["family"]).strip().lower())
        except (KeyError, ValueError) as exc:
            raise DomainError(f"unknown or missing model family in {data!r}") from exc
        known = (("lambda", "lam"), ("mass", "mass"), ("sigma", "sigma"), ("omega", "omega"))
        extra = set(data) - {"family"} - {key for key, _ in known}
        if extra:
            raise DomainError(f"unknown model keys {sorted(extra)}; "
                              "expected lambda/mass/sigma/omega")
        kwargs = {}
        for key, attr in known:
            if key in data:
                kwargs[attr] = float(data[key])
        return cls(family=family, **kwargs)


def kg_force(model: ModelSpec, phi: ArrayLike) -> ArrayLike:
    """The N(phi) of box(phi) + N(phi) = 0 for the model's KG family.

    phi may be complex (two catalog entries are purely imaginary); NLS
    families are rejected with FamilyMismatchError.
    """
    f = model.family
    if f is Family.CUBIC_KG:
        return model.lam * phi**3
    if f is Family.DOUBLE_WELL_KG:
        return -model.mass**2 * phi + model.lam * phi**3
    if f is Family.CUBIC_QUINTIC_KG:
        return -model.sigma * phi**3 + model.lam * phi**5
    if f is Family.SINE_GORDON_KG:
        return model.lam**2 * np.sin(phi)
    raise FamilyMismatchError(f"kg_force needs a KG family, got {f.value}")


def _bessel_rate(amp: np.ndarray, lo: float) -> np.ndarray:
    # J1(z)/z; if some z < cutover (lo = min z), its 0/0 is masked and filled by the series.
    if lo >= BESSEL_RATE_CUTOVER:
        return _sp.j1(amp) / amp
    small = amp < BESSEL_RATE_CUTOVER
    z2 = amp * amp
    series = 0.5 - z2 / 16.0 + z2 * z2 / 384.0
    return np.where(small, series, _bessel_rate(np.where(small, 1.0, amp), 1.0))


def nls_nonlinear_phase_rate(model: ModelSpec, amplitude: ArrayLike) -> ArrayLike:
    """V(|psi|), the amplitude-dependent phase rotation rate of the envelope equation.

    Vectorized over amplitude; amplitudes must be real and >= 0.
    """
    amp = np.asarray(amplitude, dtype=float)
    scalar = amp.ndim == 0
    lo, hi = amp.min(initial=math.inf), amp.max(initial=0.0)
    if not (lo >= 0.0 and hi < math.inf):  # NaN fails both comparisons
        raise DomainError(f"amplitude must be {'>= 0' if np.all(np.isfinite(amp)) else 'finite'}")
    f = model.family
    if f is Family.CUBIC_NLS:
        out = (model.lam / model.omega) * amp**2
    elif f is Family.DOUBLE_WELL_NLS:
        out = (model.lam / model.omega) * (amp**2 - model.mass**2 / model.lam)
    elif f is Family.CUBIC_QUINTIC_NLS:
        out = -model.sigma * amp**2 + model.lam * amp**4
    elif f is Family.BESSEL_NLS:
        out = (model.lam**2 / model.omega) * _bessel_rate(amp, lo)
    else:
        raise FamilyMismatchError(f"nls_nonlinear_phase_rate needs an NLS family, got {f.value}")
    return float(out) if scalar else out


class KappaSample(NamedTuple):
    amplitude: float
    kappa: float


def kappa_curve(amplitudes: Sequence[float]) -> list[KappaSample]:
    """Effective nonlinearity strength J1(|psi|) sampled along an amplitude list.

    Sign changes occur at the Bessel zeros (first near 3.8317), so a span up
    to amplitude ~14 crosses five sign regimes.
    """
    out = []
    for a in amplitudes:
        a = float(a)
        if not math.isfinite(a) or a < 0.0:
            raise DomainError(f"amplitudes must be finite and >= 0, got {a!r}")
        out.append(KappaSample(a, float(bessel_j1(a))))
    return out
