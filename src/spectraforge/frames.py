"""Frame-theoretic numerics for exponential systems on finite atomic measures.

For a measure with atoms c and weights p and a finite frequency set L, the
optimal frame bounds of {e^{2 pi i lambda x}} in L^2(mu) are the extreme
eigenvalues of the n x n Hermitian matrix W V* V W, where V[lambda, c] =
e^{-2 pi i lambda c} and W = diag(sqrt(p_c)).  Everything here reduces the
phases exactly before touching floating point.
"""
from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .measures import AtomicMeasure
from .rational import as_fraction, phase_matrix, sorted_distinct


@dataclass(frozen=True)
class ExponentialSystem:
    """A finite atomic measure together with a finite set of frequencies."""

    measure: AtomicMeasure
    frequencies: tuple[Fraction, ...]

    def __post_init__(self):
        freqs = sorted_distinct(as_fraction(f) for f in self.frequencies)
        object.__setattr__(self, "frequencies", freqs)

    @property
    def frequency_count(self) -> int:
        return len(self.frequencies)

    @property
    def atom_count(self) -> int:
        return self.measure.size


@dataclass(frozen=True)
class FrameBounds:
    """Optimal lower/upper frame bounds of a finite exponential system."""

    lower: float
    upper: float
    optimal: bool = True

    @property
    def condition_number(self) -> float:
        if self.lower <= 0.0:
            return float("inf")
        return self.upper / self.lower


def synthesis_matrix(system: ExponentialSystem) -> np.ndarray:
    """V[i, j] = e^{-2 pi i lambda_i c_j} with exact phase reduction."""
    return phase_matrix(system.frequencies, system.measure.atoms, sign=-1)


def _weighted_frame_matrix(system: ExponentialSystem) -> np.ndarray:
    V = synthesis_matrix(system)
    w = np.sqrt(np.array([float(p) for p in system.measure.weights]))
    B = V * w[np.newaxis, :]
    return B.conj().T @ B


def frame_bounds(system: ExponentialSystem) -> FrameBounds:
    """Optimal frame bounds as extreme eigenvalues of W V* V W.

    These are attained (by the corresponding eigenvectors), so the returned
    bounds are the best possible constants, not just estimates.
    """
    H = _weighted_frame_matrix(system)
    eigs = np.linalg.eigvalsh(H)
    return FrameBounds(lower=max(float(eigs[0]), 0.0), upper=float(eigs[-1]))


def is_riesz_spectrum(system: ExponentialSystem, tol: Optional[float] = None) -> bool:
    """True when the system is an exact Riesz basis for L^2(mu): as many
    frequencies as atoms and a strictly positive lower frame bound.

    `tol` defaults to 1e-9 relative to the upper bound.
    """
    if system.frequency_count != system.atom_count:
        return False
    fb = frame_bounds(system)
    if tol is None:
        tol = 1e-9 * fb.upper
    return fb.lower > tol


def find_riesz_spectrum(
    atoms: Sequence[int],
    strategy: str = "deterministic",
    seed: Optional[int] = None,
    denominator_bound: int = 64,
    budget: int = 1000,
) -> tuple[Fraction, ...]:
    """Frequencies making {e_lambda} a Riesz basis of L^2 of the uniform
    measure on integer atoms.

    deterministic: {0, 1/N, ..., (n-1)/N} with N = max(atoms) + 1; the
    matrix [e^{2 pi i lambda c}] is then a Vandermonde matrix in the distinct
    nodes e^{2 pi i c / N}, hence invertible.  random: seeded rational
    frequencies with bounded denominator, rejected until the determinant is
    comfortably nonzero.
    """
    C = sorted(set(int(c) for c in atoms))
    if not C or C[0] != 0 or any(c < 0 for c in C):
        raise ValueError("atoms must be distinct nonnegative integers containing 0")
    n = len(C)
    measure = AtomicMeasure.uniform(C)

    def accepted(freqs: tuple[Fraction, ...]) -> bool:
        system = ExponentialSystem(measure, freqs)
        return is_riesz_spectrum(system)

    if strategy == "deterministic":
        N = C[-1] + 1
        freqs = tuple(Fraction(j, N) for j in range(n))
        if not accepted(freqs):  # cannot happen: Vandermonde in distinct nodes
            raise AssertionError("deterministic frequency set failed validation")
        return freqs
    if strategy == "random":
        rng = random.Random(seed)
        hadamard = float(n) ** (n / 2.0)
        # anchor 0: Riesz spectra are translation invariant, so this is free
        pool = [Fraction(k, denominator_bound) for k in range(1, denominator_bound)]
        for _ in range(budget):
            freqs = tuple(sorted([Fraction(0)] + rng.sample(pool, n - 1)))
            V = phase_matrix(freqs, C)
            if abs(np.linalg.det(V)) > 1e-9 * hadamard and accepted(freqs):
                return freqs
        raise RuntimeError(f"no invertible frequency set found in {budget} draws")
    raise ValueError(f"unknown strategy {strategy!r}")


def random_vector_bounds(
    system: ExponentialSystem,
    trials: int = 500,
    seed: int = 0,
    refine_iterations: int = 200,
) -> tuple[float, float]:
    """Empirical frame-bound bracket from random unit vectors.

    Evaluates sum_lambda |<f, e_lambda>|^2 / ||f||^2 for random complex f
    supported on the atoms, then pushes the extremes with plain power
    iteration (matrix-vector products only).  Serves as an independent
    cross-check of the eigenvalue route.
    """
    V = synthesis_matrix(system)
    p = np.array([float(w) for w in system.measure.weights])
    n = len(p)
    rng = np.random.default_rng(seed)

    def ratio(f: np.ndarray) -> float:
        coeffs = V @ (p * f)
        return float(np.vdot(coeffs, coeffs).real / np.sum(p * np.abs(f) ** 2))

    lo = float("inf")
    hi = float("-inf")
    best_hi = None
    best_lo = None
    for _ in range(trials):
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        r = ratio(f)
        if r < lo:
            lo, best_lo = r, f
        if r > hi:
            hi, best_hi = r, f

    # power iteration on M = W V* V W pushes toward the top eigenvalue;
    # iterating sigma*I - M pushes toward the bottom one.
    w = np.sqrt(p)
    M = (V * w).conj().T @ (V * w)
    x = w * best_hi
    for _ in range(refine_iterations):
        x = M @ x
        x /= np.linalg.norm(x)
    hi = max(hi, float(np.vdot(x, M @ x).real))
    sigma = hi + 1.0
    x = w * best_lo
    for _ in range(refine_iterations):
        x = sigma * x - M @ x
        nrm = np.linalg.norm(x)
        if nrm == 0.0:
            break
        x /= nrm
    lo = min(lo, float(np.vdot(x, M @ x).real))
    return lo, hi


def beurling_lower_density_proxy(
    frequencies: Iterable, window: tuple[float, float], h_values: Sequence[float]
) -> list[tuple[float, float]]:
    """Sliding-window minimum count / h over the window, per h.

    A diagnostic surrogate for the Beurling lower density (the true density
    is a liminf over h -> infinity; this reports finite-h snapshots).  The
    minimum is exact: counts change only when a window endpoint crosses a
    frequency, so evaluating at the window's left edge and just past each
    frequency attains the sliding infimum.  Requires h <= (hi - lo)/4 so the
    window dominates h.
    """
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError("window must have positive length")
    lam = sorted(float(x) for x in frequencies)
    out = []
    for h in h_values:
        h = float(h)
        if not 0 < h <= (hi - lo) / 4.0:
            raise ValueError(f"need 0 < h <= window_length/4, got h={h}")
        # left-edge window [lo, lo+h)
        best = bisect.bisect_left(lam, lo + h) - bisect.bisect_left(lam, lo)
        for x in lam:
            if x < lo or x + h > hi:
                continue
            # window sliding just past x: counts (x, x+h]
            count = bisect.bisect_right(lam, x + h) - bisect.bisect_right(lam, x)
            best = min(best, count)
        out.append((h, best / h))
    return out
