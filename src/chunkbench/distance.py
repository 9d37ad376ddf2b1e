"""Sentence distances, the consecutive-distance profile, and breakpoint thresholds.

The combined distance between two sentences of one document blends where
they sit (normalized index gap) with what they say (clipped cosine
distance between their embeddings), weighted by ``positional_weight``.
A weight of 0 is purely semantic; a weight of 1 ignores content entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_DISTANCE_DOMAIN_KINDS = ("percentile", "std_dev", "interquartile", "absolute_distance")
_GRADIENT_DOMAIN_KINDS = ("gradient_percentile", "absolute_gradient")
THRESHOLD_KINDS = _DISTANCE_DOMAIN_KINDS + _GRADIENT_DOMAIN_KINDS
_PERCENTILE_KINDS = ("percentile", "gradient_percentile")


@dataclass(frozen=True)
class ThresholdPolicy:
    """A breakpoint threshold rule: which statistic to compare against, and how much.

    ``percentile`` / ``std_dev`` / ``interquartile`` / ``absolute_distance``
    produce a cutoff compared against the distance array itself;
    ``gradient_percentile`` / ``absolute_gradient`` produce a cutoff
    compared against the gradient of the distance array.
    """

    kind: str
    amount: float

    def __post_init__(self) -> None:
        if self.kind not in THRESHOLD_KINDS:
            raise ValueError(f"unknown threshold kind {self.kind!r}")
        if self.kind in _PERCENTILE_KINDS:
            if not 0.0 <= self.amount <= 100.0:
                raise ValueError(f"percentile amount must be in [0, 100], got {self.amount}")
        elif self.amount < 0.0:
            raise ValueError(f"threshold amount must be >= 0, got {self.amount}")

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


def threshold(
    values: np.ndarray, policy: ThresholdPolicy, slope: np.ndarray | None = None
) -> float:
    """Cutoff value a distance (or gradient) must strictly exceed to split.

    Percentiles and quartiles use linear interpolation; ``gradient_percentile``
    takes the percentile of the gradient of ``values``, which a caller that
    holds it already passes as ``slope``; the absolute kinds return the
    configured amount unchanged.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("values must be a non-empty 1D array")
    if policy.kind == "percentile":
        return _percentiles(arr, policy.amount)[0]
    if policy.kind == "std_dev":
        return float(arr.mean() + policy.amount * arr.std())
    if policy.kind == "interquartile":
        q25, q75 = _percentiles(arr, 25.0, 75.0)
        return float(arr.mean() + policy.amount * (q75 - q25))
    if policy.kind == "gradient_percentile":
        return _percentiles(gradient(arr) if slope is None else slope, policy.amount)[0]
    # absolute_distance and absolute_gradient use the amount as-is.
    return float(policy.amount)


def _percentiles(values: np.ndarray, *qs: float) -> list[float]:
    """np.percentile(values, q) for each q, bit for bit, from one sort.

    numpy's default linear rule with its own arithmetic: at virtual index
    v = (n - 1) * (q / 100), with g its fractional part, a + (b - a) * g
    below g = 0.5 and b - (b - a) * (1 - g) from there; the last value
    from v = n - 1 on; NaN when any value is NaN. It holds for finite
    values other than -0.0, which distances and their gradients never are.
    np.percentile itself would import numpy.ma on first use.
    """
    ordered = np.sort(values).tolist()
    top = len(ordered) - 1
    if math.isnan(ordered[top]):
        return [math.nan] * len(qs)
    out = []
    for q in qs:
        v = top * (q / 100)
        if v >= top:
            out.append(ordered[top])
        else:
            i = math.floor(v)
            a, b, g = ordered[i], ordered[i + 1], v - i
            out.append(a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g))
    return out
