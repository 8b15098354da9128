"""Binned mutual-information and channel-capacity estimation.

Companion to :mod:`repro.stats.detection`: where the chi-squared
machinery answers "how many observations until the attacker *detects*
the victim", these estimators answer "how many *bits* does one
observation carry about the secret" -- the leakage axis of the
mitigation frontier (``mitigation.frontier``).

The model: a discrete secret ``S`` (e.g. victim present/absent) and a
continuous observable ``X`` (an inter-arrival time, an RTT).  Samples
of ``X`` under each secret value are binned on pooled equiprobable
quantile edges, giving a joint histogram over ``(S, bin)``; the plug-in
estimate of ``I(S; X)`` follows, optionally Miller--Madow corrected for
the positive small-sample bias (the correction is what makes truly
independent samples report ~0 bits instead of ``O(bins/N)``).

For an upper bound over all secret priors, :func:`channel_capacity_bits`
runs Blahut--Arimoto on the binned conditional distributions.
"""

import math
from typing import List, Optional, Sequence

import numpy as np


def pooled_bin_edges(samples_by_class: Sequence[Sequence[float]],
                     bins: int) -> np.ndarray:
    """Interior bin edges at the pooled samples' equiprobable quantiles.

    Pooling makes the binning secret-blind: edges depend on the mixture
    only, so the estimator cannot manufacture information through a
    secret-dependent choice of bins.
    """
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    pooled = np.concatenate([np.asarray(s, dtype=float)
                             for s in samples_by_class])
    if pooled.size == 0:
        raise ValueError("no samples to bin")
    quantiles = np.arange(1, bins) / bins
    return np.quantile(pooled, quantiles)


def binned_joint_counts(samples_by_class: Sequence[Sequence[float]],
                        bins: int = 10,
                        edges: Optional[np.ndarray] = None) -> np.ndarray:
    """The ``(classes, bins)`` joint histogram of class vs binned value."""
    if edges is None:
        edges = pooled_bin_edges(samples_by_class, bins)
    edges = np.asarray(edges, dtype=float)
    width = edges.size + 1
    counts = np.zeros((len(samples_by_class), width), dtype=float)
    for row, samples in enumerate(samples_by_class):
        values = np.asarray(samples, dtype=float)
        if values.size == 0:
            raise ValueError(f"class {row} has no samples")
        cells = np.searchsorted(edges, values, side="right")
        counts[row] = np.bincount(cells, minlength=width)[:width]
    return counts


def mutual_information_bits(counts: np.ndarray,
                            correction: bool = False) -> float:
    """Plug-in ``I(S; X)`` in bits from a joint count matrix.

    With ``correction`` the Miller--Madow bias estimate
    ``(K_joint - K_rows - K_cols + 1) / (2 N ln 2)`` (``K`` = occupied
    cells) is subtracted and the result floored at zero.
    """
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    if total <= 0:
        raise ValueError("empty joint histogram")
    joint = counts / total
    rows = joint.sum(axis=1, keepdims=True)
    cols = joint.sum(axis=0, keepdims=True)
    mask = joint > 0
    ratio = np.ones_like(joint)
    np.divide(joint, rows * cols, out=ratio, where=mask)
    bits = float(np.sum(joint[mask] * np.log2(ratio[mask])))
    if correction:
        k_joint = int(np.count_nonzero(counts))
        k_rows = int(np.count_nonzero(counts.sum(axis=1)))
        k_cols = int(np.count_nonzero(counts.sum(axis=0)))
        bias = (k_joint - k_rows - k_cols + 1) / (2.0 * total * math.log(2))
        bits = max(0.0, bits - bias)
    return max(0.0, bits)


def mi_bits(samples_by_class: Sequence[Sequence[float]],
            bins: int = 10, correction: bool = True,
            edges: Optional[np.ndarray] = None) -> float:
    """Leakage in bits between the class label and the binned samples."""
    counts = binned_joint_counts(samples_by_class, bins=bins, edges=edges)
    return mutual_information_bits(counts, correction=correction)


def channel_capacity_bits(conditionals: np.ndarray,
                          iterations: int = 2000,
                          tol: float = 1e-9) -> float:
    """Blahut--Arimoto capacity (bits/observation) of a discrete channel.

    ``conditionals`` is a ``(inputs, outputs)`` matrix of ``P(x | s)``
    rows.  Convergence uses the standard upper/lower capacity bounds;
    the returned value is the lower bound at termination, within
    ``tol`` bits of the optimum.
    """
    p = np.asarray(conditionals, dtype=float)
    if p.ndim != 2 or p.shape[0] < 1:
        raise ValueError(f"conditionals must be a 2-D matrix, "
                         f"got shape {p.shape}")
    sums = p.sum(axis=1)
    if np.any(sums <= 0):
        raise ValueError("every input needs a valid output distribution")
    p = p / sums[:, None]
    inputs = p.shape[0]
    prior = np.full(inputs, 1.0 / inputs)
    lower = 0.0
    for _ in range(iterations):
        marginal = prior @ p                     # q(x)
        # D(p(.|s) || q) per input, in bits
        mask = p > 0
        log_ratio = np.zeros_like(p)
        np.log2(p / np.maximum(marginal[None, :], 1e-300),
                out=log_ratio, where=mask)
        divergence = (p * log_ratio).sum(axis=1)
        upper = float(divergence.max())
        lower = float(np.log2(np.dot(prior, np.exp2(divergence))))
        if upper - lower < tol:
            break
        prior = prior * np.exp2(divergence)
        prior /= prior.sum()
    return max(0.0, lower)


def capacity_from_samples(samples_by_class: Sequence[Sequence[float]],
                          bins: int = 10) -> float:
    """Channel capacity of the binned observable over all secret priors."""
    counts = binned_joint_counts(samples_by_class, bins=bins)
    return channel_capacity_bits(counts)


def leakage_summary(samples_by_class: Sequence[Sequence[float]],
                    bins: int = 10) -> dict:
    """Both estimates plus the sample budget, for frontier rows."""
    counts = binned_joint_counts(samples_by_class, bins=bins)
    return {
        "mi_bits": mutual_information_bits(counts, correction=True),
        "mi_bits_raw": mutual_information_bits(counts, correction=False),
        "capacity_bits": channel_capacity_bits(counts),
        "samples": [int(n) for n in counts.sum(axis=1)],
        "bins": int(counts.shape[1]),
    }
