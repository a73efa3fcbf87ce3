"""Exact rational helpers shared across the package.

All frequencies, atoms, and weights are `fractions.Fraction` end to end;
floating point enters only at the final complex-exponential evaluation,
after an exact mod-1 reduction of the phase.  The batched phase kernel at
the end of this module is the one place that reduction happens for arrays
of points.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Sequence, Union

import numpy as np

RationalLike = Union[int, Fraction, str]

TWO_PI = 2.0 * math.pi

# phases with an exact complex value; keeps quarter-lattice masks bit-clean
_EXACT_PHASE = {
    Fraction(0): 1 + 0j,
    Fraction(1, 4): 1j,
    Fraction(1, 2): -1 + 0j,
    Fraction(3, 4): -1j,
}


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce ints, Fractions, and 'p/q' strings to Fraction (never floats)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Rational):
        return Fraction(x.numerator, x.denominator)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


def format_rational(x: Fraction) -> str:
    """Render a Fraction as the interchange form 'p/q' (or 'p' for integers)."""
    x = as_fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rationals(text: str) -> tuple[Fraction, ...]:
    """Parse a comma-separated list of rationals, e.g. '0,1/3,2/3'."""
    items = [part for part in text.split(",") if part.strip() != ""]
    if not items:
        raise ValueError(f"empty rational list: {text!r}")
    return tuple(as_fraction(part) for part in items)


def frac_mod1(x: Fraction) -> Fraction:
    """Exact fractional part in [0, 1)."""
    return x - (x.numerator // x.denominator)


def unit_exp(t) -> complex:
    """e^{2 pi i t}, reducing rational phases mod 1 exactly before rounding.

    Rational t is reduced in integer arithmetic so the float argument stays
    in [0, 2 pi); float t falls back to plain evaluation.
    """
    if isinstance(t, Fraction):
        r = frac_mod1(t)
        exact = _EXACT_PHASE.get(r)
        if exact is not None:
            return exact
        return cmath.exp(1j * (TWO_PI * (r.numerator / r.denominator)))
    if isinstance(t, int):
        return 1 + 0j
    return cmath.exp(1j * (TWO_PI * (t % 1.0)))


def sorted_distinct(values: Iterable[Fraction]) -> tuple[Fraction, ...]:
    """Sort and verify distinctness; raises on duplicates."""
    vals = tuple(sorted(values))
    for a, b in zip(vals, vals[1:]):
        if a == b:
            raise ValueError(f"duplicate value {a}")
    return vals


def lcm_denominator(values: Sequence[Fraction]) -> int:
    """Least common denominator of a list of rationals (1 for the empty list)."""
    out = 1
    for v in values:
        out = out * v.denominator // math.gcd(out, v.denominator)
    return out


# ---------------------------------------------------------------------------
# batched exact phases
#
# A batch of rationals is held as integer numerators over one common
# denominator.  For points a_i / Q and atoms b_j / D the phase x_i * c_j mod 1
# is then exactly the integer residue (a_i * b_j) mod M over M = Q * D.
# Residues are int64 arrays whenever every product fits, and object arrays
# of Python ints otherwise; either way the arithmetic is exact, and floating
# point enters only at the angle r / M, as in unit_exp.

# products, residues and weight sums below this bound fit in int64
_INT64_BOUND = 2**62
# integers below this bound convert to float64 exactly
_FLOAT_EXACT = 2**53
# atom-point terms per chunk of exponential_sums; bounds its temporaries
_CHUNK_TERMS = 4096

# residues 0, M/4, M/2, 3M/4 in that order: the values of _EXACT_PHASE
_QUARTER_VALUES = tuple(_EXACT_PHASE[Fraction(k, 4)] for k in range(4))


def _integer_dtype(bound: int):
    """int64 when `bound` exceeds every value to be computed, else Python ints."""
    return np.int64 if bound < _INT64_BOUND else object


def _quotients(nums: np.ndarray, den: int, bound: int) -> np.ndarray:
    """nums / den rounded correctly to float64, as int / int rounds; `bound`
    exceeds every |num|."""
    if nums.dtype != object and max(den, bound) < _FLOAT_EXACT:
        return nums / den  # both operands exact in float64: one IEEE rounding
    return np.array([int(n) / den for n in nums.flat], dtype=float).reshape(nums.shape)


@dataclass(frozen=True, eq=False)
class RationalBatch:
    """Exact rationals numerators[i] / denominator over one common denominator.

    `numerators` is a 1-d integer array: int64, or an object array of Python
    ints where int64 could overflow.
    """

    numerators: np.ndarray
    denominator: int

    @classmethod
    def of(cls, values) -> "RationalBatch":
        fracs = [as_fraction(v) for v in values]
        den = lcm_denominator(fracs)
        nums = [f.numerator * (den // f.denominator) for f in fracs]
        return cls(np.array(nums, dtype=_integer_dtype(max(map(abs, nums), default=0))), den)

    def __len__(self) -> int:
        return len(self.numerators)

    @property
    def magnitude(self) -> int:
        """The largest |numerator| (0 for an empty batch)."""
        return int(np.abs(self.numerators).max(initial=0))

    def divided_by(self, k: int) -> "RationalBatch":
        """The batch x / k for a positive integer k."""
        return RationalBatch(self.numerators, self.denominator * k)

    def outer_sum(self, other: "RationalBatch") -> "RationalBatch":
        """x_i + y_j for every pair, row-major in (i, j)."""
        den = math.lcm(self.denominator, other.denominator)
        sx, sy = den // self.denominator, den // other.denominator
        dtype = _integer_dtype(max(sx, sy, self.magnitude * sx + other.magnitude * sy))
        a = self.numerators.astype(dtype) * sx
        b = other.numerators.astype(dtype) * sy
        return RationalBatch(np.add.outer(a, b).ravel(), den)

    def floats(self) -> np.ndarray:
        """Each value rounded correctly to float64, as float(Fraction) is."""
        return _quotients(self.numerators, self.denominator, self.magnitude + 1)


def _residue_operands(xs: RationalBatch, cs: RationalBatch, sign: int = 1):
    """(A, B, M) with (A outer* B) mod M the phase residues of sign * x * c."""
    M = xs.denominator * cs.denominator
    amax, bmax = xs.magnitude, cs.magnitude
    dtype = _integer_dtype(max(M, amax, bmax, amax * bmax))
    return xs.numerators.astype(dtype), sign * cs.numerators.astype(dtype), M


def phase_residues(xs: RationalBatch, cs: RationalBatch, sign: int = 1):
    """Exact residues of the phases sign * x_i * c_j mod 1.

    Returns (R, M) with R[i, j] = (sign * a_i * b_j) mod M and M = Q * D, so
    the phase is exactly R[i, j] / M.  R is int64 when every product and M
    fit, otherwise an object array of Python ints.
    """
    A, B, M = _residue_operands(xs, cs, sign)
    return np.multiply.outer(A, B) % M, M


def residue_exp(R: np.ndarray, M: int) -> np.ndarray:
    """e^{2 pi i R / M} elementwise for integer residues 0 <= R < M.

    Bit-identical to unit_exp(Fraction(r, M)): the residues 0, M/4, M/2 and
    3M/4 take the exact values 1, i, -1 and -i, and every other residue goes
    through the same float angle.
    """
    values = np.exp(1j * (TWO_PI * _quotients(R, M, M)))
    for k, exact in enumerate(_QUARTER_VALUES):
        if k * M % 4 == 0:
            values[R == k * M // 4] = exact
    return values


def phase_matrix(xs: Sequence, cs: Sequence, sign: int = 1) -> np.ndarray:
    """E[i, j] = e^{2 pi i sign x_i c_j} for rational xs and cs, entry for
    entry bit-identical to unit_exp(sign * x_i * c_j)."""
    return residue_exp(*phase_residues(RationalBatch.of(xs), RationalBatch.of(cs), sign))


def exponential_sums(xs: RationalBatch, cs: RationalBatch, weights: Sequence) -> np.ndarray:
    """S_i = sum_j w_j e^{2 pi i x_i c_j} with exact phase reduction.

    The terms of one point that share a residue are merged first, with exact
    integer weights over the weights' common denominator, so each point
    evaluates one exponential per distinct residue and S_i is bit-exact
    1 where every phase is an integer and the weights sum to one, and
    bit-exact 0 where the merged weights of quarter phases cancel.  Points go
    through in chunks of about _CHUNK_TERMS terms.
    """
    w = RationalBatch.of(weights)
    w_bound = len(w) * w.magnitude + 1  # exceeds every merged weight
    w_nums = w.numerators.astype(_integer_dtype(w_bound))
    A, B, M = _residue_operands(xs, cs)
    m = len(B)
    out = np.empty(len(A), dtype=complex)
    step = max(1, _CHUNK_TERMS // m)
    for start in range(0, len(A), step):
        R = np.multiply.outer(A[start:start + step], B) % M
        order = np.argsort(R, axis=1)
        R = np.take_along_axis(R, order, axis=1).ravel()
        # runs of equal residues within a row; every row starts a run
        run = np.ones(R.size, dtype=bool)
        run[1:] = R[1:] != R[:-1]
        run[::m] = True
        starts = np.flatnonzero(run)
        weight = _quotients(np.add.reduceat(w_nums[order].ravel(), starts), w.denominator,
                            w_bound)
        terms = weight * residue_exp(R[starts], M)
        out[start:start + step] = np.add.reduceat(terms, np.flatnonzero(starts % m == 0))
    return out
