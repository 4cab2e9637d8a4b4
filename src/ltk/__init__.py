"""Exact arithmetic for height-2 local Iwasawa theory at desk scale.

Subpackages:
  rings          -- finite quotients of Z_p, quadratic extensions, cyclotomic rings
  series         -- truncated power series kernel, Weierstrass preparation
  lubin_tate     -- formal groups, torsion towers, Coleman norm operator, omega polynomials
  measures       -- Amice/Mahler measures, tilde operator, coset masses, moments, twists
  coleman        -- interpolation of norm-compatible systems, tilde-log pipeline
  lambda_modules -- characteristic ideals of matrix cokernels over O[[T]]
  elliptic       -- complex-numeric sigma/theta/psi lattice functions
  cli            -- the `ltk` command line front end
"""

from .rings import (
    DomainError,
    PrecisionExhausted,
    RingElem,
    RingSpec,
    make_composite,
    make_ring,
    valuation,
)
from .series import (
    TruncSeries,
    WeierstrassData,
    mu_lambda_by_roots,
    weierstrass_prep,
)
from .lubin_tate import FormalGroup, QuotientRing, TorsionTower, build_group, build_tower
from .measures import (
    FiniteCharacter,
    Measure,
    coset_mass,
    dirac,
    gauss_sum,
    moment,
    tilde_series,
    twist_eval,
)
from .coleman import CompatibleSystem, interpolate, mu_zero, norm_fixed_point, tilde_log
from .lambda_modules import LambdaPresentation, additivity_check, char_ideal
from .elliptic import Lattice, delta_canonical, psi_robert

__all__ = [
    "RingSpec", "RingElem", "make_ring", "make_composite", "valuation",
    "TruncSeries", "WeierstrassData", "weierstrass_prep",
    "mu_lambda_by_roots",
    "FormalGroup", "QuotientRing", "TorsionTower", "build_group", "build_tower",
    "Measure", "FiniteCharacter", "dirac", "tilde_series", "coset_mass",
    "moment", "gauss_sum", "twist_eval",
    "CompatibleSystem", "interpolate", "norm_fixed_point", "tilde_log", "mu_zero",
    "LambdaPresentation", "char_ideal", "additivity_check",
    "Lattice", "psi_robert", "delta_canonical",
    "PrecisionExhausted", "DomainError",
]
