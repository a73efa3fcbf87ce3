import cmath
import random
from fractions import Fraction as F

import pytest

from spectraforge import (
    AtomicMeasure,
    ConvolutionMeasure,
    EvalPolicy,
    IntegerLatticeGenerator,
    SelfSimilarMeasure,
    SelfSimilarTowerGenerator,
    UnitIntervalLebesgue,
    factor_spectrum,
    gram_section,
    interval_union_rspectrum,
    mask_eval,
    nonspectral_certificate,
    riesz_spectrum_convolution,
    spectrum_convolution,
    zero_set_descriptor,
)
from spectraforge import convolution, spectra


def quarter_cantor_convolution(weights=None):
    atoms = (F(0), F(1))
    eta = (
        AtomicMeasure.uniform([0, 1])
        if weights is None
        else AtomicMeasure(atoms, tuple(weights))
    )
    return ConvolutionMeasure(eta, 1, SelfSimilarMeasure((0, 1), 4))


# --- orthonormal direct sums ---------------------------------------------------


def test_spectrum_convolution_direct_sum():
    mu = quarter_cantor_convolution()
    gen = SelfSimilarTowerGenerator(mu.continuous_factor)
    section = spectrum_convolution(mu, (F(0), F(1, 2)), gen, 2)
    assert section.kind == "orthonormal"
    assert section.frequencies == (
        F(0), F(1, 2), F(2), F(5, 2), F(8), F(17, 2), F(10), F(21, 2)
    )
    assert section.size == 8
    # every unordered pair is orthogonal, checked here without the library's
    # certificate: the dilated mask is bit-exactly 0 at the difference, or the
    # difference is an exact zero of the continuous factor's transform
    nu_zeros = zero_set_descriptor(mu.continuous_factor)
    freqs = section.frequencies
    mask_zero = transform_zero = 0
    for i, hi in enumerate(freqs):
        for lo in freqs[:i]:
            if mask_eval(mu.dilated_discrete, hi - lo) == 0:
                mask_zero += 1
            else:
                assert nu_zeros.locate(hi - lo) is not None, (lo, hi)
                transform_zero += 1
    assert (mask_zero, transform_zero) == (16, 12)
    # the closed-form counts of the factor argument
    assert len(section.witnesses["pairs"]) == 28 == 16 + 12
    assert section.witnesses["mask_factor_pairs"] == 16
    assert section.witnesses["transform_factor_pairs"] == 12


def test_spectrum_convolution_descriptor_builds_do_not_grow(monkeypatch):
    # the section is certified by its two factor certificates, so the number
    # of zero-set descriptors built is fixed, not one per pair of the section
    builds = []
    build = spectra.zero_set_descriptor

    def counting(measure):
        builds.append(measure)
        return build(measure)

    monkeypatch.setattr(convolution, "zero_set_descriptor", counting)
    monkeypatch.setattr(spectra, "zero_set_descriptor", counting)
    mu = quarter_cantor_convolution()
    gen = SelfSimilarTowerGenerator(mu.continuous_factor)
    counts = {}
    for depth in (2, 5):
        builds.clear()
        section = spectrum_convolution(mu, (F(0), F(1, 2)), gen, depth)
        assert section.size == 2 ** (depth + 1)
        counts[depth] = len(builds)
    assert counts[2] == counts[5]


def test_spectrum_convolution_dilated_mask_zero_required():
    # q = 3 dilation: 1/4 is not a zero of the dilated mask, 1/6 is
    eta = AtomicMeasure.uniform([0, 1])
    nu = SelfSimilarMeasure((0, 1), 4)
    mu = ConvolutionMeasure(eta, 3, nu)
    gen = SelfSimilarTowerGenerator(nu)
    with pytest.raises(ValueError, match="bi-zero"):
        spectrum_convolution(mu, (F(0), F(1, 4)), gen, 2)
    section = spectrum_convolution(mu, (F(0), F(1, 6)), gen, 2)
    assert section.size == 8


def test_spectrum_convolution_rejects_nonuniform_discrete_factor():
    mu = quarter_cantor_convolution([F(1, 3), F(2, 3)])
    gen = SelfSimilarTowerGenerator(mu.continuous_factor)
    with pytest.raises(ValueError, match="uniform|equal"):
        spectrum_convolution(mu, (F(0), F(1, 2)), gen, 2)


def test_spectrum_convolution_zero_set_hypothesis():
    # 1/6-Cantor continuous factor: zeros live in (1/4)Z \ Z, hypothesis fails
    eta = AtomicMeasure.uniform([0, 1])
    nu = SelfSimilarMeasure((0, 2), 6)
    mu = ConvolutionMeasure(eta, 1, nu)
    with pytest.raises(ValueError, match="hypothesis"):
        spectrum_convolution(mu, (F(0), F(1, 2)), SelfSimilarTowerGenerator(nu), 2)


def test_spectrum_convolution_lebesgue_factor():
    eta = AtomicMeasure.uniform([0, 1])
    mu = ConvolutionMeasure(eta, 1, UnitIntervalLebesgue())
    section = spectrum_convolution(mu, (F(0), F(1, 2)), IntegerLatticeGenerator(), 1)
    assert F(0) in section.frequencies and F(1, 2) in section.frequencies
    assert section.size == 6  # {0, 1/2} + {-1, 0, 1}


def test_generator_measure_mismatch_rejected():
    mu = quarter_cantor_convolution()
    other = SelfSimilarTowerGenerator(SelfSimilarMeasure((0, 2), 4))
    with pytest.raises(ValueError):
        spectrum_convolution(mu, (F(0), F(1, 2)), other, 2)


# --- Riesz evidence --------------------------------------------------------------


def test_riesz_spectrum_convolution_records_determinant():
    mu = quarter_cantor_convolution([F(1, 3), F(2, 3)])
    gen = SelfSimilarTowerGenerator(mu.continuous_factor)
    ev = riesz_spectrum_convolution(mu, gen, 2)
    assert ev.kind == "riesz_evidence"
    assert ev.discrete_part == (F(0), F(1, 2))
    assert ev.witnesses["matrix_determinant_modulus"] == pytest.approx(2.0, abs=1e-9)
    assert ev.size == 8


def test_gram_section_floors_weighted_quarter_cantor():
    # frozen from an independent numpy evaluation of the Gram matrix at
    # atom-approximation depth J + 2
    mu = quarter_cantor_convolution([F(1, 3), F(2, 3)])
    gen = SelfSimilarTowerGenerator(mu.continuous_factor)
    policy = EvalPolicy()
    expected = {1: (0.667102, 1.332898), 2: (0.666675, 1.333325), 3: (0.666667, 1.333333)}
    for J, (lo_ref, hi_ref) in expected.items():
        freqs = riesz_spectrum_convolution(mu, gen, J).frequencies
        lo, hi = gram_section(mu, freqs, approx_depth=J + 2, policy=policy)
        assert lo == pytest.approx(lo_ref, abs=5e-6)
        assert hi == pytest.approx(hi_ref, abs=5e-6)


def test_gram_section_lebesgue_exact_entries():
    eta = AtomicMeasure((F(0), F(1)), (F(1, 3), F(2, 3)))
    mu = ConvolutionMeasure(eta, 1, UnitIntervalLebesgue())
    freqs = riesz_spectrum_convolution(mu, IntegerLatticeGenerator(), 1).frequencies
    lo, hi = gram_section(mu, freqs, approx_depth=4, policy=EvalPolicy())
    assert 0 < lo < 1 < hi


# --- factoring a candidate spectrum ----------------------------------------------


def test_factor_spectrum():
    S, classes = factor_spectrum((F(0), F(1, 4), F(5, 4), F(3, 2)), 2)
    assert S == (F(0), F(1, 4))
    assert classes[F(0)] == (F(0), F(3, 2))
    assert classes[F(1, 4)] == (F(0), F(1))


def test_factor_spectrum_identity_for_integer_input():
    S, classes = factor_spectrum((F(0), F(2), F(8), F(10)), 1)
    assert S == (F(0),)
    assert classes[F(0)] == (F(0), F(2), F(8), F(10))


# --- certificates ----------------------------------------------------------------


def test_nonspectral_certificate_weighted():
    cert = nonspectral_certificate(quarter_cantor_convolution([F(1, 3), F(2, 3)]), EvalPolicy())
    assert cert.verdict == "not_spectral"
    assert "equal-weight" in cert.provenance
    assert cert.witnesses["weights"] == [F(1, 3), F(2, 3)]


def test_nonspectral_certificate_uniform_is_spectral():
    cert = nonspectral_certificate(quarter_cantor_convolution(), EvalPolicy())
    assert cert.verdict == "spectral"
    assert cert.witnesses["discrete_frequencies"] == [F(0), F(1, 2)]


def test_nonspectral_certificate_inconclusive_when_hypothesis_fails():
    eta = AtomicMeasure((F(0), F(1)), (F(1, 3), F(2, 3)))
    mu = ConvolutionMeasure(eta, 1, SelfSimilarMeasure((0, 2), 6))
    cert = nonspectral_certificate(mu, EvalPolicy())
    # the weight obstruction needs q*zeros(nu_hat) in Z, which fails here
    assert cert.verdict == "inconclusive"


def test_nonspectral_certificate_bad_discrete_atoms():
    eta = AtomicMeasure.uniform([0, 1, 3])  # {0,1,3} admits no spectrum
    mu = ConvolutionMeasure(eta, 1, SelfSimilarMeasure((0, 1), 4))
    cert = nonspectral_certificate(mu, EvalPolicy())
    assert cert.verdict == "not_spectral"


# --- interval unions --------------------------------------------------------------


def test_interval_union_half_integer_translates():
    out = interval_union_rspectrum([(F(0), F(1, 2)), (F(1), F(3, 2))])
    assert out.scale == 2
    assert out.shift == 0
    assert out.offsets == (0, 2)
    assert out.gram_lower > 0
    assert len(out.discrete_part) == 2
    section = out.pulled_back_section()
    assert F(0) in section


def test_interval_union_with_negative_part():
    out = interval_union_rspectrum([(F(-1, 3), F(0)), (F(1, 3), F(2, 3))])
    assert out.scale == 3
    assert out.shift == 1
    assert out.offsets == (0, 2)


def test_interval_union_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        interval_union_rspectrum([(F(0), F(1)), (F(1, 2), F(3, 2))])


def test_interval_union_touching_intervals_merge_to_unit_cells():
    # [0,1/2] and [1/2,1] tile [0,1]: offsets are consecutive cells
    out = interval_union_rspectrum([(F(0), F(1, 2)), (F(1, 2), F(1))])
    assert out.scale == 2
    assert out.offsets == (0, 1)


# --- global invariants -------------------------------------------------------------


def _orthonormal_cases():
    nu = SelfSimilarMeasure((0, 1), 4)
    lattice = ConvolutionMeasure(AtomicMeasure.uniform([0, 1]), 1, UnitIntervalLebesgue())
    yield quarter_cantor_convolution(), (F(0), F(1, 2)), SelfSimilarTowerGenerator(nu), 2
    yield (
        ConvolutionMeasure(AtomicMeasure.uniform([0, 1]), 3, nu),
        (F(0), F(1, 6)),
        SelfSimilarTowerGenerator(nu),
        2,
    )
    yield lattice, (F(0), F(1, 2)), IntegerLatticeGenerator(), 1


def test_factor_spectrum_round_trip():
    # factoring an assembled section by the dilation recovers the discrete
    # part exactly, and every class is the untouched generator truncation
    for mu, S, gen, depth in _orthonormal_cases():
        section = spectrum_convolution(mu, S, gen, depth)
        recovered, classes = factor_spectrum(section.frequencies, mu.dilation)
        assert recovered == section.discrete_part
        gamma = gen.truncate(depth)
        for s in recovered:
            assert classes[s] == gamma


def test_translation_by_dilated_atoms_acts_blockwise():
    # shifting a trig polynomial on S + Gamma by a dilated discrete atom a
    # only rotates each S-block: gamma * a = (q gamma) * atom is an integer,
    # so the Gamma phases drop out
    rng = random.Random(5)
    for mu, S, gen, depth in _orthonormal_cases():
        section = spectrum_convolution(mu, S, gen, depth)
        coeffs = {f: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for f in section.frequencies}
        gamma = gen.truncate(depth)

        def poly(x):
            return sum(c * cmath.exp(2j * cmath.pi * float(lam) * x) for lam, c in coeffs.items())

        for x in (0.0, 0.17, 0.543, 1.3):
            for a in mu.dilated_discrete.atoms:
                blocks = sum(
                    cmath.exp(2j * cmath.pi * float(s) * float(a))
                    * sum(
                        coeffs[s + g] * cmath.exp(2j * cmath.pi * float(s + g) * x)
                        for g in gamma
                    )
                    for s in section.discrete_part
                )
                assert abs(poly(x + float(a)) - blocks) < 1e-10
