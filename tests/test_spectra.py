import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectraforge import (
    AtomicMeasure,
    EvalPolicy,
    SelfSimilarMeasure,
    ZeroSetDescriptor,
    classify_discrete,
    classify_4,
    classify_3,
    is_bizero,
    jp_scan,
    rational_mask_zeros,
    selfsimilar_spectrum,
    spectral_discrete_check,
    zero_set_descriptor,
    zeroset_membership,
)
from spectraforge.rational import as_fraction


def test_rational_mask_zeros():
    assert rational_mask_zeros((0, 2), 4) == (F(1, 4), F(3, 4))
    assert rational_mask_zeros((0, 1), 2) == (F(1, 2),)
    assert rational_mask_zeros((0, 1, 2), 3) == (F(1, 3), F(2, 3))
    # {0,1,3} mod 4: the digit polynomial has no cyclotomic factors
    assert rational_mask_zeros((0, 1, 3), 4) == ()


# --- zero-set descriptors ----------------------------------------------------


def test_quarter_cantor_descriptor():
    mu = SelfSimilarMeasure((0, 2), 4)
    d = zero_set_descriptor(mu)
    assert d.base_zeros == (F(1, 4), F(3, 4))
    assert d.scale == 4
    assert d.complete


def test_quarter_cantor_zero_set_is_scaled_odds():
    # Z = {4^j * a : j >= 0, a odd} on the integers
    mu = SelfSimilarMeasure((0, 2), 4)
    d = zero_set_descriptor(mu)
    members = {k for k in range(1, 257) if zeroset_membership(d, k)}
    expected = set()
    for j in range(5):
        expected |= {4**j * a for a in range(1, 257, 2) if 4**j * a <= 256}
    assert members == expected


def test_sixth_cantor_descriptor_membership():
    # integer lambda lies in the zero set iff 1 <= v2(4 lambda) <= v3(4 lambda)
    mu = SelfSimilarMeasure((0, 2), 6)
    d = zero_set_descriptor(mu)

    def v(p, n):
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        return k

    for lam in range(-300, 301):
        expected = lam != 0 and 1 <= v(2, abs(4 * lam)) <= v(3, abs(4 * lam))
        assert zeroset_membership(d, lam) == expected, lam
    assert zeroset_membership(d, F(3, 2))
    assert not zeroset_membership(d, F(1, 3))


def test_descriptor_locate_returns_witness():
    d = ZeroSetDescriptor((F(1, 4), F(3, 4)), 4)
    assert d.locate(F(16)) == (3, F(1, 4))  # 16 = 4^3 * (1/4 + 0), level j >= 1
    assert d.locate(F(5)) == (1, F(1, 4))  # 5 = 4 * (1/4 + 1)
    assert d.locate(F(2)) is None
    assert F(12) in d and F(2) not in d


def gap_bounded_locate(descriptor, x):
    """Reference search: try every base zero at j = 1, 2, ... in Fraction
    arithmetic until |x| / scale^j falls inside the zero-free gap around 0."""
    x = as_fraction(x)
    if x == 0:
        return None
    zeros = descriptor.base_zeros
    gap = min(zeros[0], 1 - zeros[-1])
    j = 1
    while abs(x) / descriptor.scale**j >= gap:
        for z in zeros:
            if (x / descriptor.scale**j - z).denominator == 1:
                return j, z
        j += 1
    return None


DIGIT_SETS = [
    ((0, 2), 4), ((0, 1), 4), ((0, 3), 6), ((0, 2), 6), ((0, 1, 2), 6),
    ((0, 4), 8), ((0, 1), 2), ((0, 5), 10), ((0, 1, 2, 3), 8),
]


@st.composite
def zero_set_inputs(draw, descriptor):
    """Integers past 2^63 of both signs, Fractions, 'p/q' strings, and exact
    members scale^k * (z + m) with k up to 40, nudged or not."""
    big = st.integers(-(2**80), 2**80)
    kind = draw(st.sampled_from(["int", "fraction", "string", "member"]))
    if kind == "int":
        return draw(big)
    if kind == "fraction":
        return F(draw(big), draw(st.integers(1, 10**6)))
    if kind == "string":
        return f"{draw(st.integers(-(10**9), 10**9))}/{draw(st.integers(1, 500))}"
    z = draw(st.sampled_from(descriptor.base_zeros))
    k, m = draw(st.integers(0, 40)), draw(st.integers(-1000, 1000))
    return descriptor.scale**k * (z + m) + draw(st.sampled_from([0, 0, 1, F(1, 2)]))


@pytest.mark.parametrize("digits,scale", DIGIT_SETS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_locate_matches_gap_bounded_search(digits, scale, data):
    d = zero_set_descriptor(SelfSimilarMeasure(digits, scale))
    x = data.draw(zero_set_inputs(d))
    assert d.locate(x) == gap_bounded_locate(d, x)


def test_locate_edge_inputs_match_gap_bounded_search():
    d = zero_set_descriptor(SelfSimilarMeasure((0, 2), 6))
    for x in [1, -1, 2**63, -(2**63) + 2, 6**40 * 3, -(6**40), F(3, 2), F(-3, 2), "3/2", 0]:
        assert d.locate(x) == gap_bounded_locate(d, x), x
    with pytest.raises(TypeError):
        d.locate(True)


def test_descriptor_rejects_nonrational_scale_input():
    mu = SelfSimilarMeasure((0, 1, 3), 5)  # mask without rational zeros
    with pytest.raises(ValueError):
        zero_set_descriptor(mu)


# --- bi-zero certificates ------------------------------------------------------


def test_is_bizero_exact_for_uniform_integer_atoms():
    mu = AtomicMeasure.uniform([0, 1, 2])
    cert = is_bizero((F(0), F(1, 3), F(2, 3)), mu)
    assert cert.ok and cert.exact
    assert len(cert.witnesses) == 3  # one per unordered pair
    assert all(w.kind == "cyclotomic" for w in cert.witnesses)


def test_is_bizero_requires_zero_frequency():
    mu = AtomicMeasure.uniform([0, 1, 2])
    cert = is_bizero((F(1, 3), F(2, 3)), mu)
    assert not cert.ok
    assert "0" in cert.reason


def test_is_bizero_failure_names_the_bad_pair():
    mu = AtomicMeasure.uniform([0, 1, 2])
    cert = is_bizero((F(0), F(1, 3), F(1, 2)), mu)
    assert not cert.ok
    assert cert.pair == (F(1, 3), F(1, 2)) or cert.pair == (F(0), F(1, 2))


def test_is_bizero_selfsimilar_exact_witnesses():
    mu = SelfSimilarMeasure((0, 2), 4)
    lam = (F(0), F(1), F(4), F(5))  # section of {0,1} + 4{0,1}
    cert = is_bizero(lam, mu)
    assert cert.ok and cert.exact
    kinds = {w.kind for w in cert.witnesses}
    assert kinds == {"zero-set"}


def test_is_bizero_numeric_fallback_for_weighted_atoms():
    mu = AtomicMeasure((F(0), F(1)), (F(1, 3), F(2, 3)))
    cert = is_bizero((F(0), F(1, 2)), mu)
    # the weighted mask does not vanish at 1/2 (it equals -1/3)
    assert not cert.ok


def per_pair_bizero(freqs, measure):
    """Reference certificate: one gap-bounded search per pair, in order."""
    d = zero_set_descriptor(measure)
    witnesses = []
    for i, hi in enumerate(freqs):
        for lo in freqs[:i]:
            hit = gap_bounded_locate(d, hi - lo)
            if hit is None:
                return (lo, hi), "difference is outside the zero set"
            witnesses.append((lo, hi, "zero-set", f"scale^{hit[0]} * ({hit[1]} + Z)"))
    return witnesses


def certificate_form(cert):
    if cert.ok:
        return [(w.low, w.high, w.kind, w.detail) for w in cert.witnesses]
    return cert.pair, cert.reason


@pytest.mark.parametrize("digits,scale,depth", [
    ((0, 2), 4, 7), ((0, 3), 6, 6), ((0, 1, 2), 6, 4), ((0, 4), 8, 7),
])
def test_is_bizero_matches_per_pair_reference_on_towers(digits, scale, depth):
    mu = SelfSimilarMeasure(digits, scale)
    lam = selfsimilar_spectrum(mu, depth)
    cert = is_bizero(lam, mu)
    assert cert.ok and cert.exact
    assert len(cert.witnesses) == len(lam) * (len(lam) - 1) // 2
    assert certificate_form(cert) == per_pair_bizero(lam, mu)
    # a planted frequency outside the tower: same first failing pair and reason
    planted = tuple(sorted(lam + (lam[-1] + F(1, 3),)))
    failure = is_bizero(planted, mu)
    assert not failure.ok
    assert certificate_form(failure) == per_pair_bizero(planted, mu)


def test_is_bizero_locates_each_distinct_difference_once(monkeypatch):
    # the depth-5 (0,2):4 tower has 32 elements: 496 pairs, 121 distinct differences
    calls = []
    locate = ZeroSetDescriptor.locate

    def counting_locate(self, x):
        calls.append(x)
        return locate(self, x)

    monkeypatch.setattr(ZeroSetDescriptor, "locate", counting_locate)
    mu = SelfSimilarMeasure((0, 2), 4)
    lam = selfsimilar_spectrum(mu, 5)
    cert = is_bizero(lam, mu)
    assert cert.ok and len(cert.witnesses) == 496
    assert len(calls) == 121 == len({b - a for i, b in enumerate(lam) for a in lam[:i]})


def test_spectral_discrete_check():
    assert spectral_discrete_check(AtomicMeasure.uniform([0, 1, 2]), (F(0), F(1, 3), F(2, 3)))
    # cardinality mismatch: orthogonal but not a basis
    assert not spectral_discrete_check(AtomicMeasure.uniform([0, 1, 2, 3]), (F(0), F(1, 2)))
    # non-uniform weights disqualify immediately
    weighted = AtomicMeasure((F(0), F(1)), (F(1, 3), F(2, 3)))
    assert not spectral_discrete_check(weighted, (F(0), F(1, 2)))


# --- small classifiers --------------------------------------------------------


def test_classify_3():
    assert classify_3((0, 1, 2)) == (True, (F(0), F(1, 3), F(2, 3)))
    assert classify_3((0, 1, 5)) == (True, (F(0), F(1, 3), F(2, 3)))
    assert classify_3((0, 1, 3)) == (False, None)
    with pytest.raises(ValueError, match="gcd"):
        classify_3((0, 2, 4))


def test_classify_4():
    assert classify_4((0, 1, 2, 3)) == (True, (F(0), F(1, 4), F(1, 2), F(3, 4)))
    assert classify_4((0, 1, 2, 5)) == (False, None)
    # two even nonzero atoms can never work
    assert classify_4((0, 2, 4, 7))[0] is False
    with pytest.raises(ValueError, match="gcd"):
        classify_4((0, 2, 4, 6))


def test_classify_4_larger_two_adic_spectrum():
    # {0, 4, 1, 5}: even atom 4 has v2 = 2, odd difference |1-5| = 4 has v2 = 2
    ok, lam = classify_4((0, 1, 4, 5))
    assert ok
    assert lam == (F(0), F(1, 2), F(1, 8), F(5, 8)) or lam == tuple(sorted(lam))


def test_classify_discrete_dispatch():
    verdict, lam, _ = classify_discrete((0,))
    assert verdict == "spectral" and lam == (F(0),)
    verdict, lam, _ = classify_discrete((0, 3))
    assert verdict == "spectral" and lam == (F(0), F(1, 6))
    verdict, lam, _ = classify_discrete((0, 2, 4))  # gcd 2, rescaled triple
    assert verdict == "spectral" and lam == (F(0), F(1, 6), F(1, 3))
    verdict, lam, _ = classify_discrete((0, 1, 3))
    assert verdict == "not_spectral" and lam is None
    verdict, lam, reason = classify_discrete((0, 1, 2, 3, 4, 5))
    assert verdict == "spectral"
    verdict, lam, reason = classify_discrete((0, 1, 2, 3, 7))  # five atoms, no tiling route
    assert verdict == "inconclusive"


def test_classify_discrete_with_dilation():
    # atoms dilated by q: the spectrum contracts by the same factor
    _, lam1, _ = classify_discrete((0, 1, 2))
    _, lam3, _ = classify_discrete((0, 1, 2), 3)
    assert lam3 == tuple(x / 3 for x in lam1)


# --- self-similar spectrum towers ---------------------------------------------


def test_tower_quarter_cantor_digits_02():
    mu = SelfSimilarMeasure((0, 2), 4)
    assert selfsimilar_spectrum(mu, 1) == (F(0), F(1))
    assert selfsimilar_spectrum(mu, 2) == (F(0), F(1), F(4), F(5))
    lam3 = selfsimilar_spectrum(mu, 3)
    expected = sorted(a + 4 * b + 16 * c for a in (0, 1) for b in (0, 1) for c in (0, 1))
    assert lam3 == tuple(F(x) for x in expected)


def test_tower_quarter_cantor_digits_01():
    mu = SelfSimilarMeasure((0, 1), 4)
    assert selfsimilar_spectrum(mu, 2) == (F(0), F(2), F(8), F(10))


def test_tower_is_exactly_orthogonal():
    mu = SelfSimilarMeasure((0, 2), 4)
    lam = selfsimilar_spectrum(mu, 4)
    cert = is_bizero(lam, mu)
    assert cert.ok and cert.exact


def test_tower_needs_a_tiling_digit_set():
    with pytest.raises(ValueError):
        selfsimilar_spectrum(SelfSimilarMeasure((0, 3), 4), 2)


# --- orthonormality scans -------------------------------------------------------


def test_jp_scan_weighted_pair_value():
    # Q(x) for eta = (1/3, 2/3) on {0,1} with Lambda = {0, 1/2}:
    # |m(x)|^2 + |m(x + 1/2)|^2 = 2(p^2 + q^2) + ... = 10/9 at x = 1/8
    mu = AtomicMeasure((F(0), F(1)), (F(1, 3), F(2, 3)))
    res = jp_scan(mu, (F(0), F(1, 2)), [F(1, 8)], EvalPolicy())
    assert res.rows[0].q_value == pytest.approx(10 / 9, abs=1e-12)
    assert res.rows[0].error_bound == 0.0
    assert not res.bessel_ok  # exceeds 1 somewhere on the grid


def test_jp_scan_exact_finite_spectrum_is_flat():
    mu = AtomicMeasure.uniform([0, 1, 2])
    grid = [F(k, 32) for k in range(32)]
    res = jp_scan(mu, (F(0), F(1, 3), F(2, 3)), grid, EvalPolicy())
    assert res.max_abs_deviation < 1e-12
    assert res.bessel_ok


def test_jp_scan_rejects_an_empty_grid():
    with pytest.raises(ValueError):
        jp_scan(AtomicMeasure.uniform([0, 1]), (F(0), F(1, 2)), [])


def test_jp_scan_selfsimilar_carries_error_bounds():
    mu = SelfSimilarMeasure((0, 2), 4)
    lam = selfsimilar_spectrum(mu, 2)
    res = jp_scan(mu, lam, [F(1, 3), F(1, 7)], EvalPolicy(truncation_depth=20))
    assert all(r.error_bound > 0 for r in res.rows)
    # finite section of the true spectrum: Q <= 1 + certified error
    assert res.max_above_one <= max(r.error_bound for r in res.rows) + 1e-12


# --- global invariants ------------------------------------------------------------


def test_classifier_positives_carry_exact_certificates():
    # every spectral verdict up to max atom 30 must survive the cyclotomic
    # witness check; the counts are frozen as a regression pin
    positives = 0
    for c2 in range(2, 31):
        for c1 in range(1, c2):
            if math.gcd(c1, c2) != 1:
                continue
            ok, freqs = classify_3((0, c1, c2))
            if ok:
                assert spectral_discrete_check(AtomicMeasure.uniform([0, c1, c2]), freqs)
                positives += 1
    assert positives == 69

    positives = 0
    for c3 in range(3, 31):
        for c2 in range(2, c3):
            for c1 in range(1, c2):
                if math.gcd(math.gcd(c1, c2), c3) != 1:
                    continue
                ok, freqs = classify_4((0, c1, c2, c3))
                if ok:
                    assert spectral_discrete_check(
                        AtomicMeasure.uniform([0, c1, c2, c3]), freqs
                    )
                    positives += 1
    assert positives == 567


@pytest.mark.parametrize("digits,scale", [((0, 2), 4), ((0, 1), 4), ((0, 3), 6)])
def test_tower_differences_stay_in_the_zero_set(digits, scale):
    # finite sections are orthogonal because *every* pairwise difference lands
    # in the transform's zero set, certified arithmetically in both signs
    mu = SelfSimilarMeasure(digits, scale)
    desc = zero_set_descriptor(mu)
    for depth in range(1, 6):
        lam = selfsimilar_spectrum(mu, depth)
        for i, a in enumerate(lam):
            for b in lam[:i]:
                assert zeroset_membership(desc, a - b)
                assert zeroset_membership(desc, b - a)


def test_jp_scan_partial_towers_increase_toward_one():
    # nested sections can only add nonnegative |transform|^2 terms, so the
    # computed Q grows pointwise with depth and never crosses 1 (Bessel)
    mu = SelfSimilarMeasure((0, 2), 4)
    grid = [F(k, 128) for k in range(128)]
    prev = None
    for depth in range(1, 5):
        res = jp_scan(mu, selfsimilar_spectrum(mu, depth), grid)
        assert res.max_above_one <= 1e-9
        if prev is not None:
            for old, new in zip(prev, res.rows):
                assert new.q_value >= old.q_value - 1e-12
        prev = res.rows
