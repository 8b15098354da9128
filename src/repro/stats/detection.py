"""Chi-squared coresidence detection (Fig. 1(b,c), Fig. 4(b)).

The paper's attacker collects ``n`` timing observations and runs a
chi-squared goodness-of-fit test of the null hypothesis "I am NOT
coresident with the victim" (observations ~ the no-victim distribution
``p``) against data actually drawn from the victim-influenced
distribution ``q``.  "Observations needed" is the smallest ``n`` at which
the test rejects the null at the requested confidence with probability at
least ``power`` (we use the conventional asymptotic: the test statistic
under ``q`` is noncentral chi-squared with noncentrality ``n * delta``
where ``delta = sum_i (q_i - p_i)^2 / p_i``).
"""

from typing import List, Sequence, Tuple

import numpy as np
from scipy import stats as scipy_stats

from repro.stats.distributions import Distribution, Empirical

#: the confidence levels Fig. 1(b) and Fig. 4(b) are drawn at
CONFIDENCES = (0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 0.99)


def equiprobable_bin_edges(dist: Distribution, bins: int = 10) -> List[float]:
    """Interior bin edges making ``bins`` equiprobable cells under ``dist``.

    Binning under the *null* distribution is the standard recipe: expected
    counts are equal, so the chi-squared approximation is well behaved.
    """
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    return [dist.quantile(i / bins) for i in range(1, bins)]


def bin_probabilities(dist: Distribution,
                      edges: Sequence[float]) -> np.ndarray:
    """Cell probabilities of ``dist`` over the bins defined by ``edges``
    (with implicit -inf / +inf outer edges)."""
    cdf_values = [0.0] + [dist.cdf(e) for e in edges] + [1.0]
    probs = np.diff(np.array(cdf_values))
    if np.any(probs < -1e-12):
        raise ValueError("bin edges must be sorted")
    return np.clip(probs, 0.0, 1.0)


def chi_square_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """``delta = sum (q_i - p_i)^2 / p_i`` -- per-observation noncentrality.

    Cells where the null probability is ~0 are dropped (the attacker would
    merge such cells in practice).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("p and q must have the same number of cells")
    mask = p > 1e-12
    return float(np.sum((q[mask] - p[mask]) ** 2 / p[mask]))


def observations_to_detect(p: np.ndarray, q: np.ndarray, confidence: float,
                           power: float = 0.5, max_n: int = 10**7) -> int:
    """Smallest n such that a chi-squared test of null ``p`` on n draws
    from ``q`` rejects at the given ``confidence`` with prob >= ``power``.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0,1), got {confidence}")
    if not 0.0 < power < 1.0:
        raise ValueError(f"power must be in (0,1), got {power}")
    delta = chi_square_divergence(p, q)
    if delta <= 0:
        return max_n  # indistinguishable distributions
    df = int(np.count_nonzero(np.asarray(p) > 1e-12)) - 1
    if df < 1:
        raise ValueError("need at least two non-empty cells")
    critical = scipy_stats.chi2.ppf(confidence, df)

    def detects(n: int) -> bool:
        return scipy_stats.ncx2.sf(critical, df, n * delta) >= power

    if detects(1):
        return 1
    low, high = 1, 2
    while not detects(high):
        low, high = high, high * 2
        if high > max_n:
            return max_n
    while high - low > 1:
        mid = (low + high) // 2
        if detects(mid):
            high = mid
        else:
            low = mid
    return high


def observations_curve(p: np.ndarray, q: np.ndarray,
                       confidences: Sequence[float],
                       power: float = 0.5) -> List[Tuple[float, int]]:
    """(confidence, observations needed) pairs -- one Fig. 1(b)/4(b) line."""
    return [(c, observations_to_detect(p, q, c, power=power))
            for c in confidences]


def observations_needed_from_samples(
        null_samples: Sequence[float], alt_samples: Sequence[float],
        confidences: Sequence[float], bins: int = 10,
        power: float = 0.5) -> List[Tuple[float, int]]:
    """Fig. 4(b): :func:`observations_curve` from two empirical sample
    sets.  Bins are the null samples' equiprobable quantiles; each
    condition's cell probabilities are its samples' frequencies."""
    edges = equiprobable_bin_edges(Empirical(null_samples), bins)

    def frequencies(samples: Sequence[float]) -> np.ndarray:
        cells = np.searchsorted(edges, samples)
        return np.bincount(cells, minlength=bins) / len(samples)

    return observations_curve(frequencies(null_samples),
                              frequencies(alt_samples), confidences,
                              power=power)


def empirical_observations_to_detect(null_dist: Distribution,
                                     alt_dist: Distribution,
                                     confidence: float, rng,
                                     bins: int = 10,
                                     trials: int = 200,
                                     power: float = 0.5,
                                     max_n: int = 10**6) -> int:
    """Monte-Carlo version: actually draw samples from ``alt_dist``, run
    Pearson's test against ``null_dist``'s cell probabilities, and find the
    smallest n detecting with frequency >= ``power``.

    Used to validate the analytic calculator and to process simulator
    traces (Fig. 4(b)).
    """
    edges = equiprobable_bin_edges(null_dist, bins)
    p = bin_probabilities(null_dist, edges)
    df = bins - 1
    critical = scipy_stats.chi2.ppf(confidence, df)
    edge_arr = np.array(edges)

    def reject_rate(n: int) -> float:
        rejections = 0
        for _ in range(trials):
            draws = np.array([alt_dist.sample(rng) for _ in range(n)])
            counts = np.bincount(np.searchsorted(edge_arr, draws),
                                 minlength=bins)[:bins]
            expected = p * n
            mask = expected > 0
            statistic = np.sum(
                (counts[mask] - expected[mask]) ** 2 / expected[mask])
            if statistic > critical:
                rejections += 1
        return rejections / trials

    n = 1
    while n <= max_n:
        if reject_rate(n) >= power:
            return n
        n = max(n + 1, int(n * 1.5))
    return max_n
