"""Cluster features (CFs) — the sufficient statistics behind BIRCH.

A cluster feature summarizes a set of ``N`` d-dimensional points as the
triple ``(N, LS, SS)`` where ``LS`` is the linear sum and ``SS`` the sum
of squared norms (Zhang et al. 1996).  CFs are *additive*: merging two
clusters adds their triples, which is what makes the CF-tree and the
BIRCH+ incremental maintenance of §3.1.2 possible.

From the triple alone one can compute the centroid, radius, diameter,
and the standard inter-cluster distance metrics D0–D4 of the BIRCH
paper; this module implements D0 (centroid Euclidean), D1 (centroid
Manhattan), D2 (average inter-cluster) and D4 (variance increase).

Each metric is one array kernel (``kernel_d*``) over CFs stacked as
``(N, LS, SS, centroid)`` arrays (:data:`CFStack`): one CF against a
stack, or all pairs of a stack (:func:`pairwise`), with no Python loop
per pair.  The two-CF functions
``distance_d*`` are the one-pair case of the same kernels.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence

import numpy as np

#: A point is a fixed-length tuple of floats (hashable, block-storable).
Point = tuple[float, ...]

#: Values per broadcast temporary in :func:`pairwise` (2 MiB of float64).
PAIRWISE_CHUNK = 1 << 18


class ClusterFeature:
    """The additive ``(N, LS, SS)`` summary of a set of points."""

    __slots__ = ("n", "ls", "ss")

    def __init__(self, n: int = 0, ls: np.ndarray | None = None, ss: float = 0.0):
        self.n = n
        self.ls = None if ls is None else np.asarray(ls, dtype=float)
        self.ss = float(ss)

    @classmethod
    def from_point(cls, point: Sequence[float]) -> "ClusterFeature":
        """CF of a single point."""
        vec = np.asarray(point, dtype=float)
        return cls(1, vec.copy(), float(vec @ vec))

    @classmethod
    def from_points(cls, points: Iterable[Sequence[float]]) -> "ClusterFeature":
        """CF of a collection of points."""
        cf = cls()
        for point in points:
            cf.add_point(point)
        return cf

    @property
    def dim(self) -> int | None:
        """Dimensionality, or ``None`` for the empty CF."""
        return None if self.ls is None else len(self.ls)

    def is_empty(self) -> bool:
        return self.n == 0

    def copy(self) -> "ClusterFeature":
        return ClusterFeature(self.n, None if self.ls is None else self.ls.copy(), self.ss)

    def add_point(self, point: Sequence[float]) -> None:
        """Absorb one point (in place)."""
        vec = np.asarray(point, dtype=float)
        if self.ls is None:
            self.ls = vec.copy()
        else:
            self.ls = self.ls + vec
        self.n += 1
        self.ss += float(vec @ vec)

    def merge(self, other: "ClusterFeature") -> None:
        """Absorb another CF (in place) — the additivity property."""
        if other.is_empty():
            return
        if self.ls is None:
            self.ls = other.ls.copy()
        else:
            self.ls = self.ls + other.ls
        self.n += other.n
        self.ss += other.ss

    def merged(self, other: "ClusterFeature") -> "ClusterFeature":
        """A new CF equal to the merge of the two operands."""
        result = self.copy()
        result.merge(other)
        return result

    def centroid(self) -> np.ndarray:
        """The cluster centroid ``LS / N``."""
        if self.is_empty():
            raise ValueError("empty cluster feature has no centroid")
        return self.ls / self.n

    def radius(self) -> float:
        """RMS distance of the member points from the centroid.

        ``R = sqrt(SS/N - ||LS/N||²)``, clamped at zero against
        floating-point jitter.
        """
        if self.is_empty():
            raise ValueError("empty cluster feature has no radius")
        centroid = self.ls / self.n
        value = self.ss / self.n - float(centroid @ centroid)
        return math.sqrt(max(value, 0.0))

    def diameter(self) -> float:
        """RMS pairwise distance between member points.

        ``D = sqrt((2N·SS - 2||LS||²) / (N(N-1)))``; zero for N < 2.
        """
        if self.n < 2:
            return 0.0
        value = (2.0 * self.n * self.ss - 2.0 * float(self.ls @ self.ls)) / (
            self.n * (self.n - 1)
        )
        return math.sqrt(max(value, 0.0))

    def __repr__(self) -> str:
        if self.is_empty():
            return "ClusterFeature(empty)"
        return f"ClusterFeature(n={self.n}, centroid={np.round(self.centroid(), 3)})"


#: CFs stacked for the distance kernels: ``(N, LS, SS, centroids)``
#: arrays whose leading shapes broadcast together (``LS`` and the
#: centroids carry one more axis, the dimensions).  One CF is the 0-d
#: case, a list of CFs the 1-d case.  ``N`` is held as float64: counts
#: and products of two counts are exact in it below 2**53.
CFStack = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: A distance kernel: two broadcastable stacks -> distances of that shape.
Kernel = Callable[[CFStack, CFStack], np.ndarray]


def cf_stack(cfs: Sequence[ClusterFeature]) -> CFStack:
    """The stacked arrays of non-empty CFs, one row per CF."""
    n = np.array([cf.n for cf in cfs], dtype=float)
    ls = np.array([cf.ls for cf in cfs], dtype=float)
    return n, ls, np.array([cf.ss for cf in cfs], dtype=float), ls / n[:, None]


def cf_one(cf: ClusterFeature) -> CFStack:
    """One non-empty CF as a 0-d stack."""
    return np.asarray(float(cf.n)), cf.ls, np.asarray(cf.ss), cf.centroid()


def set_row(stack: CFStack, index: int, cf: ClusterFeature) -> None:
    """Overwrite row ``index`` of a 1-d stack with ``cf``."""
    n, ls, ss, centroids = stack
    n[index] = cf.n
    ls[index] = cf.ls
    ss[index] = cf.ss
    centroids[index] = cf.centroid()


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Inner products along the last axis, broadcast over the rest.

    Stacked ``matmul`` reduces every row with the same dot routine as
    the 1-d ``a @ b``, so each value is bitwise equal to it; an
    elementwise product summed with ``sum`` or ``einsum`` rounds in a
    different order and differs in the last bit on many rows.
    """
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def kernel_d0(a: CFStack, b: CFStack) -> np.ndarray:
    """D0, Euclidean distance between centroids, over broadcast stacks."""
    diff = a[3] - b[3]
    return np.sqrt(_inner(diff, diff))


def kernel_d1(a: CFStack, b: CFStack) -> np.ndarray:
    """D1, Manhattan distance between centroids, over broadcast stacks."""
    return np.abs(a[3] - b[3]).sum(axis=-1)


def kernel_d2(a: CFStack, b: CFStack) -> np.ndarray:
    """D2, average inter-cluster distance, over broadcast stacks.

    ``D2² = SSa/Na + SSb/Nb - 2·LSa·LSb/(Na·Nb)`` — derivable from the
    CF triples alone.
    """
    na, lsa, ssa, _ca = a
    nb, lsb, ssb, _cb = b
    value = ssa / na + ssb / nb - 2.0 * _inner(lsa, lsb) / (na * nb)
    return np.sqrt(np.maximum(value, 0.0))


def kernel_d4(a: CFStack, b: CFStack) -> np.ndarray:
    """D4, variance increase (Ward-style merge cost), over broadcast stacks.

    The increase in total within-cluster sum of squares caused by
    merging the two clusters: ``(Na·Nb)/(Na+Nb) · ||ca - cb||²``.
    """
    na, nb = a[0], b[0]
    diff = a[3] - b[3]
    return (na * nb) / (na + nb) * _inner(diff, diff)


def pairwise(kernel: Kernel, stack: CFStack) -> np.ndarray:
    """All-pairs matrix ``out[i, j] = kernel(cf_i, cf_j)`` of a 1-d stack.

    Computed a band of rows at a time, so the broadcast temporaries stay
    near ``PAIRWISE_CHUNK`` values however many CFs there are.
    """
    size = len(stack[0])
    out = np.empty((size, size))
    step = max(1, PAIRWISE_CHUNK // max(1, size * stack[1].shape[-1]))
    for start in range(0, size, step):
        band = tuple(column[start : start + step, None] for column in stack)
        out[start : start + step] = kernel(band, stack)
    return out


def distance_d0(a: ClusterFeature, b: ClusterFeature) -> float:
    """D0: Euclidean distance between centroids (one pair of :func:`kernel_d0`)."""
    return float(kernel_d0(cf_one(a), cf_one(b)))


def distance_d1(a: ClusterFeature, b: ClusterFeature) -> float:
    """D1: Manhattan distance between centroids (one pair of :func:`kernel_d1`)."""
    return float(kernel_d1(cf_one(a), cf_one(b)))


def distance_d2(a: ClusterFeature, b: ClusterFeature) -> float:
    """D2: average inter-cluster distance (one pair of :func:`kernel_d2`)."""
    return float(kernel_d2(cf_one(a), cf_one(b)))


def distance_d4(a: ClusterFeature, b: ClusterFeature) -> float:
    """D4: variance-increase distance (one pair of :func:`kernel_d4`)."""
    return float(kernel_d4(cf_one(a), cf_one(b)))


#: Distance metrics by BIRCH-paper name.
DISTANCE_METRICS = {
    "d0": distance_d0,
    "d1": distance_d1,
    "d2": distance_d2,
    "d4": distance_d4,
}


#: The same metrics as array kernels over :data:`CFStack` operands.
DISTANCE_KERNELS: dict[str, Kernel] = {
    "d0": kernel_d0,
    "d1": kernel_d1,
    "d2": kernel_d2,
    "d4": kernel_d4,
}


def get_metric(name: str):
    """Look up a CF distance metric by name (``d0``/``d1``/``d2``/``d4``)."""
    return DISTANCE_METRICS[_metric_key(name)]


def get_kernel(name: str) -> Kernel:
    """Look up a CF distance kernel by metric name."""
    return DISTANCE_KERNELS[_metric_key(name)]


def _metric_key(name: str) -> str:
    key = name.lower()
    if key not in DISTANCE_METRICS:
        raise ValueError(
            f"unknown metric {name!r}; choose from {sorted(DISTANCE_METRICS)}"
        )
    return key
