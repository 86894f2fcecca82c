"""Bootstrap-t (studentized bootstrap) confidence intervals.

The paper computes "means along with 95% bootstrap-t confidence intervals"
(Appendix E.2, citing Davison & Hinkley).  The bootstrap-t interval for the
mean of x1…xn is

    [ mean − t*_{1−α/2} · se,  mean − t*_{α/2} · se ]

where se = s/√n and t*_q are quantiles of the resampled studentized pivot
t* = (mean* − mean)/se*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_RESAMPLES = 10_000
DEFAULT_SEED = 20160613   # PLDI'16 started June 13, 2016


@dataclass(frozen=True)
class MeanEstimate:
    mean: float
    low: float
    high: float

    def round(self, digits: int = 2) -> "MeanEstimate":
        return MeanEstimate(round(self.mean, digits),
                            round(self.low, digits),
                            round(self.high, digits))


def bootstrap_t_mean(data: Sequence[float], *, alpha: float = 0.05,
                     resamples: int = DEFAULT_RESAMPLES,
                     seed: int = DEFAULT_SEED) -> MeanEstimate:
    """95% (by default) bootstrap-t confidence interval for the mean."""
    x = np.asarray(data, dtype=float)
    n = len(x)
    if n < 2:
        raise ValueError("need at least two observations")
    mean = float(x.mean())
    se = float(x.std(ddof=1)) / np.sqrt(n)
    if se == 0.0:
        return MeanEstimate(mean, mean, mean)
    rng = np.random.default_rng(seed)
    samples = rng.choice(x, size=(resamples, n), replace=True)
    boot_means = samples.mean(axis=1)
    boot_sds = samples.std(axis=1, ddof=1)
    boot_ses = boot_sds / np.sqrt(n)
    # Degenerate resamples (all-equal values) have se* = 0; their pivot is
    # 0 when the mean matched, else ±inf — drop them, as standard.
    valid = boot_ses > 0
    pivots = (boot_means[valid] - mean) / boot_ses[valid]
    t_low, t_high = np.quantile(pivots, [alpha / 2, 1 - alpha / 2])
    return MeanEstimate(mean,
                        float(mean - t_high * se),
                        float(mean - t_low * se))
