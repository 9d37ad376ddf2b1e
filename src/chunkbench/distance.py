"""Sentence distances, the consecutive-distance profile, and breakpoint thresholds.

The combined distance between two sentences of one document blends where
they sit (normalized index gap) with what they say (clipped cosine
distance between their embeddings), weighted by ``positional_weight``.
A weight of 0 is purely semantic; a weight of 1 ignores content entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_DISTANCE_DOMAIN_KINDS = ("percentile", "std_dev", "interquartile", "absolute_distance")
_GRADIENT_DOMAIN_KINDS = ("gradient_percentile", "absolute_gradient")
THRESHOLD_KINDS = _DISTANCE_DOMAIN_KINDS + _GRADIENT_DOMAIN_KINDS
_PERCENTILE_KINDS = ("percentile", "gradient_percentile")
_STD_MODES = ("population", "sample")


@dataclass(frozen=True)
class ThresholdPolicy:
    """A breakpoint threshold rule: which statistic to compare against, and how much.

    ``percentile`` / ``std_dev`` / ``interquartile`` / ``absolute_distance``
    produce a cutoff compared against the distance array itself;
    ``gradient_percentile`` / ``absolute_gradient`` produce a cutoff
    compared against the gradient of the distance array.

    ``std_mode`` selects population (default) or sample standard deviation
    and only affects the ``std_dev`` kind.
    """

    kind: str
    amount: float
    std_mode: str = "population"

    def __post_init__(self) -> None:
        if self.kind not in THRESHOLD_KINDS:
            raise ValueError(f"unknown threshold kind {self.kind!r}")
        if self.kind in _PERCENTILE_KINDS:
            if not 0.0 <= self.amount <= 100.0:
                raise ValueError(f"percentile amount must be in [0, 100], got {self.amount}")
        elif self.amount < 0.0:
            raise ValueError(f"threshold amount must be >= 0, got {self.amount}")
        if self.std_mode not in _STD_MODES:
            raise ValueError(f"std_mode must be one of {_STD_MODES}, got {self.std_mode!r}")

    @property
    def gradient_domain(self) -> bool:
        """True when the cutoff is compared against the gradient array."""
        return self.kind in _GRADIENT_DOMAIN_KINDS


def pairwise_joint_distances(
    sentence_embeddings: np.ndarray, positional_weight: float
) -> np.ndarray:
    """Full n-by-n combined-distance matrix for one document's sentences.

    Row count is the document's sentence count and doubles as the
    positional normalizer.
    """
    if not 0.0 <= positional_weight <= 1.0:
        raise ValueError(f"positional_weight must be in [0, 1], got {positional_weight}")
    emb = np.asarray(sentence_embeddings, dtype=np.float64)
    if emb.ndim != 2 or emb.shape[0] < 1:
        raise ValueError("sentence_embeddings must be a non-empty 2D array")
    n = emb.shape[0]
    idx = np.arange(n, dtype=np.float64)
    d_pos = np.abs(idx[:, None] - idx[None, :]) / n
    d_cos = 1.0 - np.clip(emb @ emb.T, 0.0, 1.0)
    return np.clip(positional_weight * d_pos + (1.0 - positional_weight) * d_cos, 0.0, 1.0)


def consecutive_distances(sentence_embeddings: np.ndarray) -> np.ndarray:
    """Clipped cosine distances between each adjacent sentence pair (length n - 1)."""
    emb = np.asarray(sentence_embeddings, dtype=np.float64)
    if emb.ndim != 2 or emb.shape[0] < 2:
        raise ValueError("need at least two sentence embeddings")
    sims = np.einsum("ij,ij->i", emb[:-1], emb[1:])
    return 1.0 - np.clip(sims, 0.0, 1.0)


def gradient(values: np.ndarray) -> np.ndarray:
    """Discrete gradient: central differences inside, one-sided at the ends."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("gradient needs a 1D array of at least two values")
    return np.gradient(arr, edge_order=1)


def threshold(values: np.ndarray, policy: ThresholdPolicy) -> float:
    """Cutoff value a distance (or gradient) must strictly exceed to split.

    Percentiles and quartiles use linear interpolation; ``gradient_percentile``
    takes the percentile of the gradient of ``values``; the absolute kinds
    return the configured amount unchanged.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("values must be a non-empty 1D array")
    if policy.kind == "percentile":
        return float(np.percentile(arr, policy.amount))
    if policy.kind == "std_dev":
        ddof = 0 if policy.std_mode == "population" else 1
        if ddof == 1 and arr.size < 2:
            raise ValueError("sample standard deviation needs at least two values")
        return float(arr.mean() + policy.amount * arr.std(ddof=ddof))
    if policy.kind == "interquartile":
        q25, q75 = np.percentile(arr, [25.0, 75.0])
        return float(arr.mean() + policy.amount * (q75 - q25))
    if policy.kind == "gradient_percentile":
        return float(np.percentile(gradient(arr), policy.amount))
    # absolute_distance and absolute_gradient use the amount as-is.
    return float(policy.amount)
