"""Spectra for convolutions of a dilated discrete measure with a continuous
factor.

The transform factors as mu_hat = (dilated mask) * nu_hat.  When the
continuous factor's zero set is carried into the integers by the dilation
(q * zeros(nu_hat) inside Z), frequency sets of the form S + Gamma inherit
orthogonality or Riesz behaviour factor by factor: S handles pairs through
the mask, Gamma handles pairs through nu_hat, and the cross terms vanish
because shifting the dilated mask by a Gamma-difference is a no-op.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .certificates import Certificate
from .cyclotomic import tiling_complement
from .frames import find_riesz_spectrum
from .measures import (
    DEFAULT_POLICY,
    AtomicMeasure,
    ConvolutionMeasure,
    EvalPolicy,
    SelfSimilarMeasure,
    UnitIntervalLebesgue,
    approximate_convolution_atoms,
    ft_values,
)
from .rational import (
    RationalBatch,
    as_fraction,
    frac_mod1,
    lcm_denominator,
    phase_matrix,
    sorted_distinct,
)
from .spectra import (
    classify_discrete,
    is_bizero,
    selfsimilar_spectrum,
    zero_set_descriptor,
)


@dataclass(frozen=True)
class IntegerLatticeGenerator:
    """Gamma = Z, the canonical spectrum of Lebesgue measure on [0, 1];
    truncations are the symmetric sections {-depth..depth}."""

    def truncate(self, depth: int) -> tuple[Fraction, ...]:
        if depth < 0:
            raise ValueError("depth must be >= 0")
        return tuple(Fraction(k) for k in range(-depth, depth + 1))


@dataclass(frozen=True)
class SelfSimilarTowerGenerator:
    """Gamma = the integer spectrum tower of a self-similar measure whose
    digits tile {0..scale-1}; truncations are the depth-J sections."""

    measure: SelfSimilarMeasure

    def truncate(self, depth: int) -> tuple[Fraction, ...]:
        return selfsimilar_spectrum(self.measure, depth)


SpectrumGenerator = Union[IntegerLatticeGenerator, SelfSimilarTowerGenerator]


@dataclass(frozen=True)
class ConvolutionSpectrum:
    """An assembled frequency section S + Gamma_J for a convolution measure."""

    discrete_part: tuple[Fraction, ...]
    dilation: int
    depth: int
    frequencies: tuple[Fraction, ...]
    kind: str  # "orthonormal" | "riesz_evidence"
    witnesses: dict

    @property
    def size(self) -> int:
        return len(self.frequencies)


def _check_generator(mu: ConvolutionMeasure, generator: SpectrumGenerator) -> None:
    nu = mu.continuous_factor
    if isinstance(generator, IntegerLatticeGenerator):
        if not isinstance(nu, UnitIntervalLebesgue):
            raise ValueError("the integer lattice generates a spectrum of Lebesgue "
                             "measure on [0,1], not of this continuous factor")
    elif isinstance(generator, SelfSimilarTowerGenerator):
        if generator.measure != nu:
            raise ValueError("tower generator belongs to a different measure")
    else:
        raise TypeError(f"unknown generator {type(generator).__name__}")


def _integer_compatible(gamma: Sequence[Fraction], q: int) -> None:
    for g in gamma:
        if (q * g).denominator != 1:
            raise ValueError(f"q * Gamma must lie in Z; offender {g} with q={q}")


def _assemble(discrete: Sequence[Fraction], gamma: Sequence[Fraction]) -> tuple[Fraction, ...]:
    out = [s + g for s in discrete for g in gamma]
    assembled = tuple(sorted(out))
    if len(set(assembled)) != len(out):
        raise ValueError("S + Gamma collided; the sum is not direct")
    return assembled


def riesz_spectrum_convolution(
    mu: ConvolutionMeasure, generator: SpectrumGenerator, depth: int
) -> ConvolutionSpectrum:
    """Assemble S + Gamma_depth where S makes the dilated discrete factor a
    Riesz system and Gamma generates a spectrum of the continuous factor.

    The invertibility witness [e^{2 pi i a s}]_{a, s} is recorded with its
    determinant modulus.
    """
    _check_generator(mu, generator)
    q = mu.dilation
    dilated = mu.dilated_discrete
    A = [int(a) for a in dilated.atoms]
    S = find_riesz_spectrum(A, strategy="deterministic")
    gamma = generator.truncate(depth)
    _integer_compatible(gamma, q)
    M = phase_matrix(A, S)
    det = abs(np.linalg.det(M))
    assembled = _assemble(S, gamma)
    return ConvolutionSpectrum(
        discrete_part=S,
        dilation=q,
        depth=depth,
        frequencies=assembled,
        kind="riesz_evidence",
        witnesses={"matrix_determinant_modulus": det, "gamma_size": len(gamma)},
    )


def _check_zero_set_hypothesis(mu: ConvolutionMeasure) -> None:
    """Verify structurally that q * zeros(nu_hat) lies in Z."""
    q = mu.dilation
    nu = mu.continuous_factor
    if isinstance(nu, UnitIntervalLebesgue):
        return  # q * (Z \ {0}) is always inside Z
    descriptor = zero_set_descriptor(nu)
    if not descriptor.complete:
        raise ValueError(
            "cannot verify q * zeros(nu_hat) inside Z: the digit polynomial has "
            "non-cyclotomic factors, so the zero-set descriptor may be incomplete"
        )
    n = descriptor.scale
    for z in descriptor.base_zeros:
        if (q * n * z).denominator != 1:
            raise ValueError(
                f"hypothesis fails: q * scale * {z} is not an integer (q={q})"
            )


def spectrum_convolution(
    mu: ConvolutionMeasure,
    discrete_part: Sequence,
    generator: SpectrumGenerator,
    depth: int,
) -> ConvolutionSpectrum:
    """Assemble the orthonormal section S + Gamma_depth, certified by its two
    factor certificates.

    Preconditions validated here: uniform discrete weights, #S = #atoms, S a
    bi-zero set of the *dilated* mask, q * zeros(nu_hat) inside Z, and Gamma
    a bi-zero set of the continuous factor.  They prove every pair of the
    section orthogonal through mu_hat = (dilated mask) * nu_hat:

    - s1 != s2: q * (g1 - g2) is an integer, so the dilated mask at
      (s1 + g1) - (s2 + g2) equals its value at s1 - s2, which S certifies;
    - s1 == s2: the difference g1 - g2 is a zero of nu_hat, certified by
      Gamma's bi-zero check (a nonzero integer for Lebesgue).

    The witnesses are the pair counts of that argument in closed form:
    `transform_factor_pairs` = #S * C(#Gamma, 2) pairs of the second kind,
    `mask_factor_pairs` the rest, and `pairs` the index range of all
    N(N - 1)/2 pairs (its len is the count).
    """
    _check_generator(mu, generator)
    eta = mu.discrete_factor
    q = mu.dilation
    if not eta.is_uniform():
        raise ValueError("orthonormal assembly needs uniform discrete weights")
    S = sorted_distinct(as_fraction(s) for s in discrete_part)
    if len(S) != eta.size:
        raise ValueError(f"need exactly {eta.size} discrete frequencies, got {len(S)}")
    _check_zero_set_hypothesis(mu)

    dilated = mu.dilated_discrete
    s_result = is_bizero(S, dilated)
    if not s_result.ok:
        raise ValueError(
            f"S is not a bi-zero set of the dilated mask: pair {s_result.pair}, "
            f"{s_result.reason}"
        )
    gamma = generator.truncate(depth)
    _integer_compatible(gamma, q)
    nu = mu.continuous_factor
    if isinstance(generator, SelfSimilarTowerGenerator):
        g_result = is_bizero(gamma, nu)
        if not g_result.ok:
            raise ValueError(f"Gamma section fails orthogonality: {g_result.reason}")

    assembled = _assemble(S, gamma)
    pairs = len(assembled) * (len(assembled) - 1) // 2
    transform_pairs = len(S) * len(gamma) * (len(gamma) - 1) // 2
    witnesses = {
        "pairs": range(pairs),
        "transform_factor_pairs": transform_pairs,
        "mask_factor_pairs": pairs - transform_pairs,
    }
    return ConvolutionSpectrum(
        discrete_part=S,
        dilation=q,
        depth=depth,
        frequencies=assembled,
        kind="orthonormal",
        witnesses=witnesses,
    )


def factor_spectrum(frequencies, q: int) -> tuple[tuple[Fraction, ...], dict]:
    """Split a candidate spectrum by the fractional parts of q * lambda.

    Returns (S, classes) with S = {frac(q lambda)/q} and classes mapping each
    s in S to its integer-compatible part {floor(q lambda)/q}; summing back
    s + classes[s] recovers the input, partitioned.
    """
    if q < 1:
        raise ValueError("q must be a positive integer")
    freqs = sorted_distinct(as_fraction(f) for f in frequencies)
    classes: dict[Fraction, list[Fraction]] = {}
    for lam in freqs:
        scaled = q * lam
        s = frac_mod1(scaled) / q
        rest = (scaled - frac_mod1(scaled)) / q
        classes.setdefault(s, []).append(rest)
    S = tuple(sorted(classes))
    return S, {s: tuple(sorted(v)) for s, v in classes.items()}


# ---------------------------------------------------------------------------
# spectrality decisions


def nonspectral_certificate(
    mu: ConvolutionMeasure, policy: EvalPolicy = DEFAULT_POLICY
) -> Certificate:
    """Decide spectrality of the convolution through its factors.

    Under the verified hypothesis q * zeros(nu_hat) inside Z and a
    Z-compatible spectrum of the continuous factor, the convolution is
    spectral exactly when the discrete factor is: non-uniform weights or a
    failed complete classifier yield a not_spectral certificate; otherwise
    the witnesses carry the discrete frequencies that work.  When the
    hypothesis itself fails, the factorwise argument says nothing and the
    certificate is inconclusive.
    """
    eta = mu.discrete_factor
    q = mu.dilation
    policy_echo = {"truncation_depth": policy.truncation_depth, "tolerance": policy.tolerance}
    try:
        _check_zero_set_hypothesis(mu)
    except ValueError as exc:
        return Certificate(
            verdict="inconclusive",
            witnesses={"reason": str(exc)},
            provenance="factorwise analysis (hypothesis not established)",
            policy=policy_echo,
        )

    nu = mu.continuous_factor
    if isinstance(nu, UnitIntervalLebesgue):
        nu_status = "spectral"
        nu_note = "Lebesgue on [0,1] with the integer lattice"
    elif tiling_complement(nu.digits, nu.scale) is not None:
        nu_status = "spectral"
        nu_note = "digit set tiles {0..scale-1}; integer tower spectrum"
    else:
        nu_status = "inconclusive"
        nu_note = "continuous factor has no certified spectrum"

    if not eta.is_uniform():
        return Certificate(
            verdict="not_spectral",
            witnesses={
                "weights": list(eta.weights),
                "reason": "orthonormal spectra force equal weights on the discrete factor",
            },
            provenance="equal-weight necessity under q*zeros(nu_hat) in Z",
            policy=policy_echo,
        )

    verdict, S, reason = classify_discrete([int(a) for a in eta.atoms], q)
    if verdict == "not_spectral":
        return Certificate(
            verdict="not_spectral",
            witnesses={"atoms": [int(a) for a in eta.atoms], "reason": reason},
            provenance="discrete-factor classifier under q*zeros(nu_hat) in Z",
            policy=policy_echo,
        )
    if verdict == "spectral" and nu_status == "spectral":
        return Certificate(
            verdict="spectral",
            witnesses={"discrete_frequencies": list(S), "continuous_factor": nu_note},
            provenance=f"factorwise assembly ({reason})",
            policy=policy_echo,
        )
    return Certificate(
        verdict="inconclusive",
        witnesses={"discrete_status": verdict, "continuous_status": nu_status,
                   "reason": f"{reason}; {nu_note}"},
        provenance="factorwise analysis",
        policy=policy_echo,
    )


# ---------------------------------------------------------------------------
# Gram-section evidence


def gram_section(
    mu: ConvolutionMeasure,
    frequencies: Sequence,
    approx_depth: int,
    policy: EvalPolicy = DEFAULT_POLICY,
) -> tuple[float, float]:
    """Extreme eigenvalues of the Gram matrix [mu_hat(k_i - k_j)] for the
    frequency section, with the continuous factor approximated at
    `approx_depth` (exact closed form for Lebesgue).

    For a genuine Riesz system the eigenvalues of every section sit inside
    the asymptotic Riesz bounds, so stability of these floors across depths
    is the numerical evidence reported by the CLI.
    """
    freqs = RationalBatch.of(sorted_distinct(as_fraction(f) for f in frequencies))
    if isinstance(mu.continuous_factor, UnitIntervalLebesgue):
        model = mu
    else:
        model = approximate_convolution_atoms(mu, approx_depth)

    # G[i, j] = mu_hat(k_i - k_j) for i >= j, one evaluation per distinct
    # difference; the upper triangle is its conjugate
    m = len(freqs)
    nums = freqs.numerators.astype(object)
    rows, cols = np.tril_indices(m)
    diffs, inverse = np.unique(nums[rows] - nums[cols], return_inverse=True)
    values, _ = ft_values(model, RationalBatch(diffs, freqs.denominator), policy)
    values = values[inverse]
    G = np.empty((m, m), dtype=complex)
    G[cols, rows] = values.conj()
    G[rows, cols] = values
    eigs = np.linalg.eigvalsh(G)
    return max(float(eigs[0]), 0.0), float(eigs[-1])


# ---------------------------------------------------------------------------
# finite unions of intervals


@dataclass(frozen=True)
class IntervalUnionSpectrum:
    """Riesz-spectrum construction for a finite union of rational intervals.

    The union E satisfies r*E + s = [0,1] + offsets with integer offsets, so
    r * (S + Z) is a Riesz spectrum of E once S works for the offset set;
    `gram_lower`/`gram_upper` record the validated finite-section bounds.
    """

    scale: int
    shift: int
    offsets: tuple[int, ...]
    discrete_part: tuple[Fraction, ...]
    lattice_depth: int
    gram_lower: float
    gram_upper: float

    def pulled_back_section(self) -> tuple[Fraction, ...]:
        lattice = IntegerLatticeGenerator().truncate(self.lattice_depth)
        return tuple(
            sorted(self.scale * (s + g) for s in self.discrete_part for g in lattice)
        )


def interval_union_rspectrum(
    intervals: Sequence[tuple], lattice_depth: int = 3
) -> IntervalUnionSpectrum:
    """Scale a disjoint union of rational intervals to unit-interval offsets
    and assemble its Riesz spectrum section.

    Raises on overlapping interiors or on scaled intervals that fail to line
    up with integer offsets (impossible for rational endpoints after common-
    denominator scaling, but rejected defensively).
    """
    if not intervals:
        raise ValueError("need at least one interval")
    spans = []
    for a, b in intervals:
        a, b = as_fraction(a), as_fraction(b)
        if not b > a:
            raise ValueError(f"degenerate interval [{a}, {b}]")
        spans.append((a, b))
    spans.sort()
    for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
        if a2 < b1:
            raise ValueError(f"overlapping intervals at {a2} < {b1}")

    endpoints = [e for ab in spans for e in ab]
    r = lcm_denominator(endpoints)
    s = -r * spans[0][0]
    if s.denominator != 1:
        raise AssertionError("shift failed to be an integer after LCD scaling")
    s = int(s)
    offsets: list[int] = []
    for a, b in spans:
        lo = r * a + s
        hi = r * b + s
        if lo.denominator != 1 or hi.denominator != 1:
            raise ValueError("scaled endpoints are not integers")
        offsets.extend(range(int(lo), int(hi)))
    offsets = sorted(set(offsets))
    if len(offsets) != sum(int(r * (b - a)) for a, b in spans):
        raise ValueError("scaled intervals overlap after unit subdivision")

    S = find_riesz_spectrum(offsets, strategy="deterministic")
    model = ConvolutionMeasure(
        AtomicMeasure.uniform(offsets), 1, UnitIntervalLebesgue()
    )
    section = _assemble(S, IntegerLatticeGenerator().truncate(lattice_depth))
    lower, upper = gram_section(model, section, approx_depth=0)
    return IntervalUnionSpectrum(
        scale=r,
        shift=s,
        offsets=tuple(offsets),
        discrete_part=S,
        lattice_depth=lattice_depth,
        gram_lower=lower,
        gram_upper=upper,
    )
