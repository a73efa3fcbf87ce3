"""Spectra certification: bi-zero sets, classifiers, and orthonormality scans.

A frequency set L with 0 in L is a *bi-zero set* of a measure when every
difference of distinct elements is a zero of the measure's transform; for a
uniform measure on k integer atoms, a bi-zero set of size k is exactly an
orthonormal spectrum.  Certificates here are exact whenever the measure
allows it (cyclotomic witnesses for integer atoms, scaled rational zero-set
membership for self-similar measures); numerical smallness is used only for
non-uniform atomic measures and is labeled as evidence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .cyclotomic import (
    cyclotomic_divisor_orders,
    cyclotomic_free_remainder,
    divides_cyclotomic,
    laba_spectrum,
    satisfies_t1,
    satisfies_t2,
    tiling_complement,
)
from .measures import (
    DEFAULT_POLICY,
    AtomicMeasure,
    EvalPolicy,
    SelfSimilarMeasure,
    ft_values,
    mask_values,
)
from .rational import RationalBatch, as_fraction, sorted_distinct


def rational_mask_zeros(digits: Sequence[int], modulus: int) -> tuple[Fraction, ...]:
    """Mask zeros of the uniform measure on `digits` of the form k/modulus.

    k/modulus (reduced) is a zero exactly when the cyclotomic polynomial of
    order modulus/gcd(k, modulus) divides the digit polynomial.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    hits = []
    checked: dict[int, bool] = {}
    for k in range(1, modulus):
        order = modulus // math.gcd(k, modulus)
        if order not in checked:
            checked[order] = order > 1 and divides_cyclotomic(digits, order)
        if checked[order]:
            hits.append(Fraction(k, modulus))
    return tuple(hits)


# ---------------------------------------------------------------------------
# zero-set descriptors for self-similar measures


@dataclass(frozen=True)
class ZeroSetDescriptor:
    """Transform zero set of a self-similar measure, as the scaled union
    union_{j>=1} scale^j (base_zeros + Z).

    `base_zeros` are the mask zeros in (0,1); `complete` records whether the
    digit polynomial splits entirely into cyclotomic factors, in which case
    the description covers every unit-circle zero (true in particular for
    every digit set that tiles {0..scale-1}).
    """

    base_zeros: tuple[Fraction, ...]
    scale: int
    complete: bool = True
    _zero_of: dict = field(init=False, repr=False, compare=False)
    _max_denominator: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        zeros = sorted_distinct(as_fraction(z) for z in self.base_zeros)
        if not zeros:
            raise ValueError("a zero-set descriptor needs at least one base zero")
        if any(not (0 < z < 1) for z in zeros):
            raise ValueError("base zeros must lie strictly inside (0, 1)")
        if self.scale < 2:
            raise ValueError("scale must be >= 2")
        object.__setattr__(self, "base_zeros", zeros)
        object.__setattr__(
            self, "_zero_of", {(z.numerator, z.denominator): z for z in zeros}
        )
        object.__setattr__(self, "_max_denominator", max(z.denominator for z in zeros))

    def locate(self, x) -> Optional[tuple[int, Fraction]]:
        """Return (j, z) with x = scale^j * (z + integer) and j minimal, or None.

        Pure integer arithmetic.  For x = p/q, level j matches exactly when
        the reduced fractional part of x / scale^j, that is
        (p mod q*scale^j) / (q*scale^j) in lowest terms, is a base zero, so
        each level costs one gcd and one lookup.  Its reduced denominator
        q*scale^j / gcd(p, scale^j) never shrinks as j grows, because
        gcd(p, scale^(j+1)) divides scale * gcd(p, scale^j); the search stops
        once that denominator passes the largest base-zero denominator.
        """
        if type(x) is int:
            p, q = x, 1
        else:
            x = as_fraction(x)
            p, q = x.numerator, x.denominator
        if p == 0:
            return None
        zero_of = self._zero_of
        bound = self._max_denominator
        N = self.scale
        m = q * N
        j = 1
        while True:
            r = p % m
            g = math.gcd(r, m)
            den = m // g
            if den > bound:
                return None
            z = zero_of.get((r // g, den))
            if z is not None:
                return j, z
            j += 1
            m *= N

    def __contains__(self, x) -> bool:
        return self.locate(x) is not None


def zero_set_descriptor(mu: SelfSimilarMeasure) -> ZeroSetDescriptor:
    """Build the descriptor from the cyclotomic factorization of the digit
    polynomial."""
    orders = cyclotomic_divisor_orders(mu.digits)
    zeros = sorted(
        Fraction(k, s) for s in orders for k in range(1, s) if math.gcd(k, s) == 1
    )
    if not zeros:
        raise ValueError("the digit polynomial has no root-of-unity zeros")
    complete = cyclotomic_free_remainder(mu.digits).degree <= 0
    return ZeroSetDescriptor(tuple(zeros), mu.scale, complete)


def zeroset_membership(descriptor: ZeroSetDescriptor, x) -> bool:
    """Exact membership of a rational x in the described zero set."""
    return descriptor.locate(x) is not None


# ---------------------------------------------------------------------------
# bi-zero certificates


@dataclass(frozen=True)
class PairWitness:
    low: Fraction
    high: Fraction
    kind: str  # "cyclotomic" | "zero-set" | "numeric"
    detail: str


@dataclass(frozen=True)
class BiZeroCertificate:
    frequencies: tuple[Fraction, ...]
    exact: bool
    witnesses: tuple[PairWitness, ...]

    @property
    def ok(self) -> bool:
        return True


@dataclass(frozen=True)
class BiZeroFailure:
    frequencies: tuple[Fraction, ...]
    pair: Optional[tuple[Fraction, Fraction]]
    reason: str

    @property
    def ok(self) -> bool:
        return False


BiZeroResult = Union[BiZeroCertificate, BiZeroFailure]


def is_bizero(
    frequencies,
    measure: Union[AtomicMeasure, SelfSimilarMeasure],
    policy: EvalPolicy = DEFAULT_POLICY,
) -> BiZeroResult:
    """Certify that `frequencies` is a bi-zero set of the measure.

    Uniform integer-atom measures get exact cyclotomic witnesses; self-similar
    measures get exact zero-set-membership witnesses; anything else falls back
    to |mask| < policy.tolerance per pair, which is evidence, not proof.
    A failure names the offending pair.

    For a self-similar measure the frequencies are written as integers over
    their common denominator, and membership is decided once per distinct
    difference: pairs with the same difference share its witness, so the
    32-element depth-5 tower of the digits-{0,2}, scale-4 measure needs 121
    membership tests, not 496.  Pairs are still visited, and witnessed, in
    order, so a failure names the first pair whose difference is outside the
    zero set.
    """
    freqs = sorted_distinct(as_fraction(f) for f in frequencies)
    if Fraction(0) not in freqs:
        return BiZeroFailure(freqs, None, "0 must belong to the set")

    if isinstance(measure, SelfSimilarMeasure):
        descriptor = zero_set_descriptor(measure)
        L = math.lcm(*(f.denominator for f in freqs))
        nums = [f.numerator * (L // f.denominator) for f in freqs]
        details: dict[int, str] = {}
        witnesses = []
        for i, hi in enumerate(freqs):
            top = nums[i]
            for lo, bottom in zip(freqs[:i], nums[:i]):
                d = top - bottom
                detail = details.get(d)
                if detail is None:
                    hit = descriptor.locate(Fraction(d, L))
                    if hit is None:
                        reason = "difference is outside the zero set"
                        if not descriptor.complete:
                            reason += " (descriptor may be incomplete)"
                        return BiZeroFailure(freqs, (lo, hi), reason)
                    j, z = hit
                    detail = details[d] = f"scale^{j} * ({z} + Z)"
                witnesses.append(PairWitness(lo, hi, "zero-set", detail))
        return BiZeroCertificate(freqs, exact=True, witnesses=tuple(witnesses))

    if not isinstance(measure, AtomicMeasure):
        raise TypeError("is_bizero expects an atomic or self-similar measure")

    if measure.is_uniform() and measure.has_integer_atoms():
        digits = [int(a) for a in measure.atoms]
        witnesses = []
        for i, hi in enumerate(freqs):
            for lo in freqs[:i]:
                d = hi - lo
                if d.denominator == 1 or not divides_cyclotomic(digits, d.denominator):
                    return BiZeroFailure(freqs, (lo, hi), "mask does not vanish there")
                witnesses.append(
                    PairWitness(lo, hi, "cyclotomic", f"order {d.denominator}")
                )
        return BiZeroCertificate(freqs, exact=True, witnesses=tuple(witnesses))

    witnesses = []
    pairs = [(lo, hi) for i, hi in enumerate(freqs) for lo in freqs[:i]]
    moduli = np.abs(mask_values(measure, [hi - lo for lo, hi in pairs]))
    for (lo, hi), value in zip(pairs, moduli):
        if value >= policy.tolerance:
            return BiZeroFailure(freqs, (lo, hi), f"|mask| = {value:.3e}")
        witnesses.append(PairWitness(lo, hi, "numeric", f"|mask| = {value:.3e}"))
    return BiZeroCertificate(freqs, exact=False, witnesses=tuple(witnesses))


def spectral_discrete_check(
    measure: AtomicMeasure, frequencies, policy: EvalPolicy = DEFAULT_POLICY
) -> bool:
    """Is `frequencies` an orthonormal spectrum of the atomic measure?

    Needs uniform weights (a necessary condition), as many frequencies as
    atoms, and the bi-zero property.
    """
    freqs = sorted_distinct(as_fraction(f) for f in frequencies)
    if not measure.is_uniform():
        return False
    if len(freqs) != measure.size:
        return False
    return is_bizero(freqs, measure, policy).ok


# ---------------------------------------------------------------------------
# complete classifiers for three and four integer atoms


def _normalized_atoms(atoms, size: int) -> list[int]:
    C = sorted(set(int(c) for c in atoms))
    if len(C) != size or C[0] != 0:
        raise ValueError(f"expected 0 and {size - 1} further distinct atoms")
    if any(c < 0 for c in C):
        raise ValueError("atoms must be nonnegative")
    if math.gcd(*C[1:]) != 1:
        raise ValueError("atoms share a common factor; normalize by the gcd first")
    return C


def classify_3(atoms) -> tuple[bool, Optional[tuple[Fraction, ...]]]:
    """Complete spectrality test for uniform measures on {0, c1, c2}.

    Spectral exactly when c2 = 2*c1 (mod 3), i.e. when the atoms form a
    complete residue system mod 3; the spectrum is then {0, 1/3, 2/3}.
    """
    _, c1, c2 = _normalized_atoms(atoms, 3)
    if (c2 - 2 * c1) % 3 != 0:
        return False, None
    spectrum = (Fraction(0), Fraction(1, 3), Fraction(2, 3))
    result = is_bizero(spectrum, AtomicMeasure.uniform(atoms))
    assert result.ok and result.exact
    return True, spectrum


def _two_adic(n: int) -> int:
    return (n & -n).bit_length() - 1


def classify_4(atoms) -> tuple[bool, Optional[tuple[Fraction, ...]]]:
    """Complete spectrality test for uniform measures on {0, c1, c2, c3}.

    Spectral exactly when exactly one nonzero atom is even and its 2-adic
    valuation matches that of the difference of the two odd atoms.  With
    a = gcd(even atom, odd difference), the spectrum is
    {0, 1/(2a), 1/2, (a+1)/(2a)}.
    """
    C = _normalized_atoms(atoms, 4)
    evens = [c for c in C[1:] if c % 2 == 0]
    odds = [c for c in C[1:] if c % 2 == 1]
    if len(evens) != 1:
        return False, None
    u = evens[0]
    d = abs(odds[1] - odds[0])
    if _two_adic(u) != _two_adic(d):
        return False, None
    a = math.gcd(u, d)
    spectrum = tuple(
        sorted((Fraction(0), Fraction(1, 2 * a), Fraction(1, 2), Fraction(a + 1, 2 * a)))
    )
    result = is_bizero(spectrum, AtomicMeasure.uniform(atoms))
    assert result.ok and result.exact
    return True, spectrum


def classify_discrete(
    atoms, dilation: int = 1
) -> tuple[str, Optional[tuple[Fraction, ...]], str]:
    """Spectrality verdict for the uniform measure on integer atoms, dilated.

    Returns (verdict, frequencies, reason).  One and two atoms are always
    spectral; three and four go through the complete classifiers (after
    normalizing out the gcd, with frequencies rescaled back); larger sets are
    declared spectral when the tiling conditions hold and inconclusive
    otherwise.  `frequencies` is a verified orthonormal spectrum of the
    measure on dilation * atoms when the verdict is "spectral".
    """
    C = sorted(set(int(a) for a in atoms))
    if not C or C[0] != 0 or any(c < 0 for c in C):
        raise ValueError("atoms must be distinct nonnegative integers containing 0")
    if dilation < 1:
        raise ValueError("dilation must be a positive integer")
    if len(C) == 1:
        return "spectral", (Fraction(0),), "a single atom is trivially spectral"
    g = math.gcd(*C[1:])
    C0 = [c // g for c in C]
    scale = g * dilation
    if len(C) == 2:
        freqs = (Fraction(0), Fraction(1, 2 * C0[1] * scale))
        return "spectral", freqs, "two atoms always admit an orthogonal pair"
    if len(C) == 3:
        ok, spectrum = classify_3(C0)
        if not ok:
            return "not_spectral", None, "three-atom classifier (complete)"
        return "spectral", tuple(s / scale for s in spectrum), "three-atom classifier"
    if len(C) == 4:
        ok, spectrum = classify_4(C0)
        if not ok:
            return "not_spectral", None, "four-atom classifier (complete)"
        return "spectral", tuple(s / scale for s in spectrum), "four-atom classifier"
    if satisfies_t1(C0) and satisfies_t2(C0):
        spectrum = laba_spectrum(C0)
        return "spectral", tuple(s / scale for s in spectrum), "tiling conditions hold"
    return "inconclusive", None, "more than four atoms without the tiling conditions"


# ---------------------------------------------------------------------------
# self-similar spectra


def selfsimilar_spectrum(mu: SelfSimilarMeasure, depth: int) -> tuple[Fraction, ...]:
    """Depth-J section of the canonical integer spectrum tower of a
    self-similar measure whose digit set tiles {0..scale-1}.

    The generator is scale * (rational spectrum of the digit set) with
    residue representatives shifted into {-(scale-2), ..., scale-2}; the
    section is the direct sum of scale^j-dilates for j < depth.

    Every section is an exactly orthogonal integer family (certified by the
    zero-set arithmetic downstream).  Completeness of the infinite tower is
    guaranteed for gcd(digits) = 1; the classical digits-{0,2}, scale-4
    measure keeps it at gcd 2 as well.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = mu.scale
    if tiling_complement(mu.digits, n) is None:
        raise ValueError("digit set does not tile {0..scale-1}")
    base = laba_spectrum(mu.digits)
    generator = []
    for s in base:
        g = s * n
        if g.denominator != 1:
            raise AssertionError("tiling digit spectrum should live in (1/scale)Z")
        g = int(g)
        generator.append(g if g <= n - 2 else g - n)
    tower = [Fraction(0)]
    for j in range(depth):
        step = n**j
        tower = [t + step * g for t in tower for g in generator]
    out = tuple(sorted(tower))
    if len(set(out)) != len(out):
        raise AssertionError("spectrum tower collided; generator not a direct summand")
    return out


# ---------------------------------------------------------------------------
# orthonormality scans


@dataclass(frozen=True)
class JPScanRow:
    x: Union[Fraction, float]
    q_value: float
    error_bound: float


@dataclass(frozen=True)
class JPScanResult:
    """Evidence-grade scan of Q(x) = sum_lambda |mu_hat(x + lambda)|^2.

    Q is identically 1 exactly when the frequencies form an orthonormal
    spectrum; a truncated frequency set can only underestimate, so the
    one-sided check Q <= 1 + tolerance is also reported.
    """

    rows: tuple[JPScanRow, ...]
    max_abs_deviation: float
    max_above_one: float
    tolerance: float

    @property
    def bessel_ok(self) -> bool:
        return self.max_above_one <= self.tolerance


def jp_scan(measure, frequencies, grid, policy: EvalPolicy = DEFAULT_POLICY) -> JPScanResult:
    """Scan the orthonormality functional over a grid of offsets.

    Each row carries a certified bound on the truncation error of Q at that
    point (zero for atomic measures).  The scan is labeled evidence: it can
    refute orthonormality, never prove it.  All grid x frequency points are
    evaluated as one batch; a grid holding a float is evaluated in floating
    point throughout.
    """
    freqs = sorted_distinct(as_fraction(f) for f in frequencies)
    xs = [x if isinstance(x, float) else as_fraction(x) for x in grid]
    if not xs:
        raise ValueError("the scan grid is empty")
    if any(isinstance(x, float) for x in xs):
        points = [x + float(lam) for x in xs for lam in freqs]
    else:
        points = RationalBatch.of(xs).outer_sum(RationalBatch.of(freqs))
    values, errors = ft_values(measure, points, policy)
    modulus = np.abs(values).reshape(len(xs), len(freqs))
    errors = errors.reshape(len(xs), len(freqs))
    q_vals = (modulus**2).sum(axis=1)
    q_errs = (2.0 * modulus * errors + errors * errors).sum(axis=1)
    rows = tuple(JPScanRow(x, float(q), float(e)) for x, q, e in zip(xs, q_vals, q_errs))
    return JPScanResult(
        rows, float(np.abs(q_vals - 1.0).max()), float((q_vals - 1.0).max()), policy.tolerance
    )
