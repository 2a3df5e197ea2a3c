"""Limiting-law machinery for the score-ratio asymptotics.

The score ratio converges to a random rescaling distributed as
sqrt(n / chi2_n).  This module provides the CDF and quantiles of the
rescaling law and a one-sample Kolmogorov-Smirnov test against any
reference CDF.  The special functions come from ``scipy.special``: the
chi-square upper tail and its inverse, and the asymptotic Kolmogorov and
exact one-sided Smirnov survival functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import chdtrc, chdtri, kolmogorov, smirnov

# Asymptotic two-sided Kolmogorov critical constant at alpha = 0.01.
KS_CRITICAL_CONSTANT_01 = 1.628


@dataclass(frozen=True)
class RLaw:
    """Law of the limiting score rescaling sqrt(n / chi2_n)."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"degrees of freedom must be >= 1, got {self.n}")

    def cdf(self, r):
        return r_cdf(r, self)

    def quantile(self, p: float) -> float:
        return r_quantile(p, self)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Monte Carlo draws sqrt(n / chi2_n)."""
        chi2 = rng.chisquare(self.n, size=size)
        return np.sqrt(self.n / chi2)


@dataclass(frozen=True)
class KsOutcome:
    """Result of a one-sample Kolmogorov-Smirnov test.

    ``p_value_approx`` is the asymptotic Kolmogorov tail at sqrt(M) D;
    ``p_value_exact`` is min(1, 2 P(D+ >= D)) from the exact one-sided
    Smirnov tail at sample size M.  It drops only the chance that both
    one-sided statistics exceed D, so its relative error is about p**3 / 8,
    the first term of the two-sided series it leaves out (1e-3 at p = 0.2).
    ``d_plus`` = max(i / M - F(x_(i))) and ``d_minus`` = max(F(x_(i)) -
    (i - 1) / M) say which way the samples stray: D+ is the larger when
    they sit to the left of the reference law (too small), D- when to the
    right; ``statistic`` is the larger of the two.
    """

    statistic: float
    d_plus: float
    d_minus: float
    sample_size: int
    critical_value_01: float
    rejected_at_01: bool
    p_value_approx: float
    p_value_exact: float


def r_cdf(r, law: RLaw):
    """CDF of the rescaling law: P(sqrt(n / chi2_n) <= r).

    By the monotone map this is the chi-square upper tail at n / r**2,
    which is evaluated directly so that the lower tail of the law keeps its
    relative accuracy.  Accepts a scalar or array of r > 0.
    """
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("the rescaling law lives on r > 0")
    result = chdtrc(law.n, law.n / arr**2)
    return float(result) if arr.ndim == 0 else result


def r_quantile(p: float, law: RLaw) -> float:
    """Inverse of r_cdf: sqrt(n / q), where q is the chi-square upper-tail
    quantile at level p."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {p}")
    return math.sqrt(law.n / chdtri(law.n, p))


def ks_test(samples, cdf: Callable[[np.ndarray], np.ndarray]) -> KsOutcome:
    """One-sample two-sided Kolmogorov-Smirnov test.

    ``cdf`` must accept a numpy array and return the reference CDF values.
    The decision at alpha = 0.01 uses the asymptotic critical value
    1.628 / sqrt(M), which is conservative at small M: its exact size is
    about 0.0055 at M = 10 and 0.0059 at M = 12, not 0.01.  Both p-values
    are reported (see ``KsOutcome``); neither enters the decision.
    """
    s = np.asarray(samples, dtype=float).ravel()
    m = s.size
    if m < 10:
        raise ValueError(f"KS test needs at least 10 samples, got {m}")
    if not np.all(np.isfinite(s)):
        raise ValueError("samples contain NaN or Inf entries")
    xs = np.sort(s)
    f = np.asarray(cdf(xs), dtype=float)
    i = np.arange(1, m + 1)
    d_plus = float(np.max(i / m - f))
    d_minus = float(np.max(f - (i - 1) / m))
    stat = max(d_plus, d_minus)
    critical = KS_CRITICAL_CONSTANT_01 / math.sqrt(m)
    return KsOutcome(
        statistic=stat,
        d_plus=d_plus,
        d_minus=d_minus,
        sample_size=m,
        critical_value_01=critical,
        rejected_at_01=stat > critical,
        p_value_approx=float(kolmogorov(math.sqrt(m) * stat)),
        p_value_exact=min(1.0, 2.0 * float(smirnov(m, stat))),
    )
