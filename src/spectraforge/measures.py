"""Measures and their Fourier transforms.

Three measure families are supported:

* finite atomic measures with exact rational atoms and weights,
* self-similar measures: the unique probability measure satisfying
  mu(E) = (1/k) * sum_{a in digits} mu(scale * E - a),
* convolutions of a dilated finite atomic measure with a continuous factor
  (a self-similar measure or Lebesgue measure on [0, 1]).

The transform convention is mu_hat(xi) = integral of e^{2 pi i xi x} d mu(x),
so the mask of an atomic measure is sum_c p_c e^{2 pi i c x}.  Self-similar
transforms are infinite products of rescaled masks; truncations carry a
certified bound on the modulus of the omitted tail's deviation from 1.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .rational import (
    TWO_PI,
    RationalBatch,
    as_fraction,
    exponential_sums,
    format_rational,
    phase_residues,
    residue_exp,
    sorted_distinct,
)


@dataclass(frozen=True)
class EvalPolicy:
    """Truncation depth and numeric tolerance for transform evaluations."""

    truncation_depth: int = 40
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.truncation_depth < 1:
            raise ValueError("truncation_depth must be >= 1")
        if not (self.tolerance > 0):
            raise ValueError("tolerance must be positive")


DEFAULT_POLICY = EvalPolicy()


@dataclass(frozen=True)
class AtomicMeasure:
    """Probability measure sum_c p_c * delta_c with rational atoms/weights.

    Atoms are distinct and sorted ascending; weights are positive rationals
    summing to one.  Equality is therefore structural equality.
    """

    atoms: tuple[Fraction, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        atoms = tuple(as_fraction(a) for a in self.atoms)
        weights = tuple(as_fraction(w) for w in self.weights)
        if len(atoms) == 0:
            raise ValueError("a measure needs at least one atom")
        if len(atoms) != len(weights):
            raise ValueError("atoms and weights differ in length")
        if list(atoms) != sorted(atoms):
            raise ValueError("atoms must be sorted ascending")
        for a, b in zip(atoms, atoms[1:]):
            if a == b:
                raise ValueError(f"duplicate atom {a}")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        if sum(weights) != 1:
            raise ValueError(f"weights sum to {sum(weights)}, expected 1")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def uniform(cls, atoms) -> "AtomicMeasure":
        atoms = sorted_distinct(as_fraction(a) for a in atoms)
        k = len(atoms)
        return cls(atoms, tuple(Fraction(1, k) for _ in atoms))

    @classmethod
    def integer_discrete(cls, atoms, weights=None) -> "AtomicMeasure":
        """Measure on nonnegative integer atoms containing 0 (uniform unless
        weights are given)."""
        atoms = sorted_distinct(as_fraction(a) for a in atoms)
        if any(a.denominator != 1 or a < 0 for a in atoms):
            raise ValueError("atoms must be nonnegative integers")
        if atoms[0] != 0:
            raise ValueError("atom set must contain 0")
        if weights is None:
            return cls.uniform(atoms)
        return cls(atoms, tuple(as_fraction(w) for w in weights))

    @property
    def size(self) -> int:
        return len(self.atoms)

    def is_uniform(self) -> bool:
        return len(set(self.weights)) == 1

    def has_integer_atoms(self) -> bool:
        return all(a.denominator == 1 for a in self.atoms)

    def dilate(self, q: int) -> "AtomicMeasure":
        """Pushforward under x -> q*x (atoms scaled, weights kept)."""
        if q < 1:
            raise ValueError("dilation must be a positive integer")
        return AtomicMeasure(tuple(a * q for a in self.atoms), self.weights)


@dataclass(frozen=True)
class SelfSimilarMeasure:
    """Self-similar measure with uniform weights on an integer digit set.

    `digits` must contain 0, be distinct nonnegative integers, and have at
    most `scale` elements; `scale >= 2`.  The measure is supported in
    [0, max(digits)/(scale-1)].
    """

    digits: tuple[int, ...]
    scale: int

    def __post_init__(self):
        digits = tuple(sorted(int(d) for d in self.digits))
        if len(set(digits)) != len(digits):
            raise ValueError("digits must be distinct")
        if not digits or digits[0] != 0:
            raise ValueError("digit set must contain 0")
        if any(d < 0 for d in digits):
            raise ValueError("digits must be nonnegative")
        if self.scale < 2:
            raise ValueError("scale must be >= 2")
        if len(digits) > self.scale:
            raise ValueError("need at most `scale` digits")
        object.__setattr__(self, "digits", digits)

    @property
    def digit_measure(self) -> AtomicMeasure:
        return AtomicMeasure.uniform(self.digits)

    @property
    def support_radius(self) -> Fraction:
        return Fraction(max(self.digits), self.scale - 1)


@dataclass(frozen=True)
class UnitIntervalLebesgue:
    """Lebesgue measure restricted to [0, 1]."""


ContinuousFactor = Union[SelfSimilarMeasure, UnitIntervalLebesgue]


@dataclass(frozen=True)
class ConvolutionMeasure:
    """(dilated discrete factor) * (continuous factor), as a convolution.

    The discrete factor lives on nonnegative integers containing 0 and is
    dilated by the integer `dilation` before convolving.  The continuous
    factor must be supported inside [0, 1], which for self-similar factors
    means max(digits) <= scale - 1.
    """

    discrete_factor: AtomicMeasure
    dilation: int
    continuous_factor: ContinuousFactor

    def __post_init__(self):
        eta = self.discrete_factor
        if not eta.has_integer_atoms() or eta.atoms[0] != 0:
            raise ValueError("discrete factor needs integer atoms containing 0")
        if self.dilation < 1:
            raise ValueError("dilation must be a positive integer")
        nu = self.continuous_factor
        if isinstance(nu, SelfSimilarMeasure):
            if nu.support_radius > 1:
                raise ValueError(
                    "continuous factor must be supported in [0,1]; "
                    f"max(digits)/(scale-1) = {nu.support_radius}"
                )
        elif not isinstance(nu, UnitIntervalLebesgue):
            raise TypeError("continuous factor must be self-similar or Lebesgue on [0,1]")

    @property
    def dilated_discrete(self) -> AtomicMeasure:
        return self.discrete_factor.dilate(self.dilation)


Measure = Union[AtomicMeasure, SelfSimilarMeasure, ConvolutionMeasure, UnitIntervalLebesgue]


# ---------------------------------------------------------------------------
# transforms
#
# Every transform is evaluated in batches: the `*_values` functions take a
# sequence of points (or a RationalBatch) and return arrays.  Points that are
# all ints and Fractions go through the exact phase kernel of `rational`; if
# any point is a float, the whole batch is evaluated in floating point.  The
# scalar functions are one-point wrappers around the batches.

def _points(xs) -> Union[RationalBatch, np.ndarray]:
    """An exact batch for rational points, a float array otherwise."""
    if isinstance(xs, RationalBatch):
        return xs
    xs = list(xs)
    if all(isinstance(x, (Fraction, int)) for x in xs):
        return RationalBatch.of(xs)
    return np.array([float(x) for x in xs], dtype=float)


def mask_values(measure: AtomicMeasure, xs) -> np.ndarray:
    """The mask sum_c p_c e^{2 pi i c x} at every point of `xs`, as one batch.

    Rational points are reduced mod 1 exactly and atoms sharing a phase are
    merged with exact weights (see `exponential_sums`), so the mask is 1
    exactly at integers (for integer atoms), vanishes exactly on
    quarter-lattice zeros, and |mask| <= 1 holds to roundoff even for huge
    frequencies.  Float points use e^{2 pi i ((c x) mod 1)} per term.
    """
    points = _points(xs)
    if isinstance(points, RationalBatch):
        return exponential_sums(points, RationalBatch.of(measure.atoms), measure.weights)
    phases = np.multiply.outer(points, [float(c) for c in measure.atoms])
    weights = [p.numerator / p.denominator for p in measure.weights]
    return (weights * np.exp(1j * (TWO_PI * (phases % 1.0)))).sum(axis=1)


def mask_eval(measure: AtomicMeasure, x) -> complex:
    """The mask sum_c p_c e^{2 pi i c x} at one rational or float point."""
    return complex(mask_values(measure, [x])[0])


def tail_deviation_bound(mu: SelfSimilarMeasure, xi, depth: int):
    """Certified bound on |product_{j>depth} mask(xi / scale^j) - 1|.

    Each omitted factor differs from 1 by at most 2 pi max(digits) |xi| / n^j
    (mean of |e^{2 pi i a t} - 1| <= 2 pi a |t|), and the product of (1+e_j)
    deviates from 1 by at most exp(sum e_j) - 1.  `xi` may be one number or
    an array of floats; the bound has the same shape.
    """
    amax = max(mu.digits)
    n = mu.scale
    x = np.abs(np.asarray(xi, dtype=float))
    return np.expm1(2.0 * math.pi * amax * x * n ** (-depth) / (n - 1))


def ft_selfsimilar_values(mu: SelfSimilarMeasure, xs, policy: EvalPolicy = DEFAULT_POLICY):
    """Truncated transforms of a self-similar measure with certified tails.

    Returns arrays (values, error_bounds) with value = prod_{j<=J} mask(x / n^j)
    and |true - value| <= error_bound (the tail bound; |value| <= 1).  Each
    truncation level is one mask batch over all points.
    """
    points = _points(xs)
    n = mu.scale
    digit_mask = mu.digit_measure
    values = np.ones(len(points), dtype=complex)
    for j in range(1, policy.truncation_depth + 1):
        if isinstance(points, RationalBatch):
            level = points.divided_by(n**j)
        else:
            level = points / float(n**j)
        values *= mask_values(digit_mask, level)
    floats = points.floats() if isinstance(points, RationalBatch) else points
    return values, tail_deviation_bound(mu, floats, policy.truncation_depth)


def ft_selfsimilar(mu: SelfSimilarMeasure, xi, policy: EvalPolicy = DEFAULT_POLICY):
    """(value, error_bound) of the truncated transform at one point; see
    `ft_selfsimilar_values`."""
    values, bounds = ft_selfsimilar_values(mu, [xi], policy)
    return complex(values[0]), float(bounds[0])


def lebesgue_values(xs) -> np.ndarray:
    """Transforms of Lebesgue measure on [0,1], (e^{2 pi i x} - 1)/(2 pi i x),
    at every point of `xs`; the phase e^{2 pi i x} is reduced exactly for
    rational points."""
    points = _points(xs)
    if isinstance(points, RationalBatch):
        phase = residue_exp(*phase_residues(points, RationalBatch.of([1])))[:, 0]
        x = points.floats()
    else:
        phase = np.exp(1j * (TWO_PI * (points % 1.0)))
        x = points
    out = np.ones(len(x), dtype=complex)
    nonzero = x != 0.0
    out[nonzero] = (phase[nonzero] - 1.0) / (2j * math.pi * x[nonzero])
    return out


def ft_lebesgue01(xi) -> complex:
    """Transform of Lebesgue measure on [0,1]: (e^{2 pi i xi} - 1)/(2 pi i xi)."""
    return complex(lebesgue_values([xi])[0])


def ft_values(measure: Measure, xs, policy: EvalPolicy = DEFAULT_POLICY):
    """Arrays (values, certified error bounds) of any measure's transform at
    every point of `xs`.

    A convolution's value is the dilated mask times the continuous
    transform; its error bound is the continuous factor's, scaled by the
    exact modulus of the mask factor.
    """
    points = _points(xs)
    if isinstance(measure, AtomicMeasure):
        return mask_values(measure, points), np.zeros(len(points))
    if isinstance(measure, SelfSimilarMeasure):
        return ft_selfsimilar_values(measure, points, policy)
    if isinstance(measure, UnitIntervalLebesgue):
        return lebesgue_values(points), np.zeros(len(points))
    if isinstance(measure, ConvolutionMeasure):
        mval = mask_values(measure.dilated_discrete, points)
        nval, nerr = ft_values(measure.continuous_factor, points, policy)
        return mval * nval, np.abs(mval) * nerr
    raise TypeError(f"unsupported measure {type(measure).__name__}")


def ft_measure(measure: Measure, xi, policy: EvalPolicy = DEFAULT_POLICY):
    """Uniform entry point: (value, certified error bound) for any measure."""
    values, bounds = ft_values(measure, [xi], policy)
    return complex(values[0]), float(bounds[0])


def ft_convolution(mu: ConvolutionMeasure, xi, policy: EvalPolicy = DEFAULT_POLICY):
    """(value, error_bound) of a convolution's transform at one point; see
    `ft_values`."""
    return ft_measure(mu, xi, policy)


# ---------------------------------------------------------------------------
# finite approximations


def approximate_atoms(
    mu: SelfSimilarMeasure, depth: int, max_atoms: int = 200_000
) -> AtomicMeasure:
    """Level-`depth` atomic approximation: uniform weights on all digit
    expansions sum_{j<=depth} a_j / scale^j.

    Coinciding expansions are merged exactly.  Raises if the atom count
    k^depth would exceed `max_atoms`.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    k = len(mu.digits)
    if k**depth > max_atoms:
        raise ValueError(f"{k}^{depth} atoms exceeds the cap of {max_atoms}")
    n = mu.scale
    acc: dict[Fraction, Fraction] = {Fraction(0): Fraction(1)}
    for j in range(1, depth + 1):
        step = Fraction(1, n**j)
        nxt: dict[Fraction, Fraction] = {}
        for pos, w in acc.items():
            for d in mu.digits:
                key = pos + d * step
                nxt[key] = nxt.get(key, Fraction(0)) + w / k
        acc = nxt
    atoms = tuple(sorted(acc))
    return AtomicMeasure(atoms, tuple(acc[a] for a in atoms))


def approximate_convolution_atoms(
    mu: ConvolutionMeasure, depth: int, max_atoms: int = 200_000
) -> AtomicMeasure:
    """Atomic approximation of the convolution (self-similar factor only)."""
    nu = mu.continuous_factor
    if not isinstance(nu, SelfSimilarMeasure):
        raise TypeError("only self-similar continuous factors have atomic approximations")
    nu_atoms = approximate_atoms(nu, depth, max_atoms)
    eta = mu.dilated_discrete
    acc: dict[Fraction, Fraction] = {}
    for a, wa in zip(eta.atoms, eta.weights):
        for b, wb in zip(nu_atoms.atoms, nu_atoms.weights):
            key = a + b
            acc[key] = acc.get(key, Fraction(0)) + wa * wb
    atoms = tuple(sorted(acc))
    return AtomicMeasure(atoms, tuple(acc[a] for a in atoms))


# ---------------------------------------------------------------------------
# serialization (bit-exact round trips; rationals as "p/q" strings)


def measure_to_dict(measure: Measure) -> dict:
    if isinstance(measure, AtomicMeasure):
        return {
            "type": "atomic",
            "atoms": [format_rational(a) for a in measure.atoms],
            "weights": [format_rational(w) for w in measure.weights],
        }
    if isinstance(measure, SelfSimilarMeasure):
        return {"type": "selfsimilar", "digits": list(measure.digits), "scale": measure.scale}
    if isinstance(measure, UnitIntervalLebesgue):
        return {"type": "lebesgue"}
    if isinstance(measure, ConvolutionMeasure):
        return {
            "type": "convolution",
            "discrete": measure_to_dict(measure.discrete_factor),
            "dilation": measure.dilation,
            "continuous": measure_to_dict(measure.continuous_factor),
        }
    raise TypeError(f"unsupported measure {type(measure).__name__}")


def _json_list(data: dict, key: str) -> list:
    value = data[key]
    if not isinstance(value, list):
        raise ValueError(f"measure field {key!r} must be a JSON list, got {type(value).__name__}")
    return value


def measure_from_dict(data: dict) -> Measure:
    """Decode a measure from the dict form of `measure_to_dict`; atoms,
    weights and digits must be lists (a string is not split into characters)."""
    kind = data.get("type")
    if kind == "atomic":
        return AtomicMeasure(
            tuple(as_fraction(a) for a in _json_list(data, "atoms")),
            tuple(as_fraction(w) for w in _json_list(data, "weights")),
        )
    if kind == "selfsimilar":
        return SelfSimilarMeasure(tuple(_json_list(data, "digits")), int(data["scale"]))
    if kind == "lebesgue":
        return UnitIntervalLebesgue()
    if kind == "convolution":
        discrete = measure_from_dict(data["discrete"])
        continuous = measure_from_dict(data["continuous"])
        if not isinstance(discrete, AtomicMeasure):
            raise ValueError("convolution discrete factor must be atomic")
        if isinstance(continuous, AtomicMeasure):
            raise ValueError("convolution continuous factor cannot be atomic")
        return ConvolutionMeasure(discrete, int(data["dilation"]), continuous)
    raise ValueError(f"unknown measure type {kind!r}")


def measure_to_json(measure: Measure) -> str:
    return json.dumps(measure_to_dict(measure), sort_keys=True)


def measure_from_json(text: str) -> Measure:
    return measure_from_dict(json.loads(text))
