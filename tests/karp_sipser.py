"""The Karp–Sipser constants of Poisson(c), computed without lexmatch.

They are the oracle that genfn's fixed points and densities and rde's
solved systems are checked against on Poisson laws, so they share no code
with either.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class KarpSipserConstants:
    """Closed-form asymptotics for Poisson(c) maximum matchings."""

    gamma_low: float
    gamma_high: float
    beta: float
    edge_density: float
    vertex_density: float


def _bisect(above, lo: float, hi: float) -> float:
    """Where above(t) turns false on [lo, hi], to adjacent doubles; above(lo) holds."""
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return lo


def karp_sipser_poisson(c: float) -> KarpSipserConstants:
    """Extreme conjugate pair and matching densities for Poisson(c).

    gamma_low is the smallest fixed point of t -> exp(-c exp(-c t)).  It
    lies at or below the fixed point gamma of t -> exp(-c t), and the map
    stays above the identity from 0 up to gamma_low and below it from there
    to gamma, so two bisections find it.  gamma_high = exp(-c gamma_low),
    beta = c gl gh + gl + gh - 1 is the atom of the level-0 message CDF at
    zero, and the matched-vertex density is 2 - gh - gl - c gl gh.
    """
    gamma = _bisect(lambda t: math.exp(-c * t) > t, 0.0, 1.0)
    gl = _bisect(lambda t: math.exp(-c * math.exp(-c * t)) > t, 0.0, gamma)
    gh = math.exp(-c * gl)
    beta = c * gl * gh + gl + gh - 1.0
    edge = (2.0 - gh - gl - c * gl * gh) / c
    return KarpSipserConstants(gl, gh, beta, edge, c * edge)
