import json
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spectraforge import (
    AtomicMeasure,
    ConvolutionMeasure,
    EvalPolicy,
    ExponentialSystem,
    RationalBatch,
    SelfSimilarMeasure,
    UnitIntervalLebesgue,
    approximate_atoms,
    approximate_convolution_atoms,
    ft_convolution,
    ft_lebesgue01,
    ft_measure,
    frac_mod1,
    ft_selfsimilar,
    mask_eval,
    mask_values,
    measure_from_json,
    measure_to_dict,
    measure_to_json,
    synthesis_matrix,
    tail_deviation_bound,
    unit_exp,
)
from spectraforge.rational import phase_residues


def test_atomic_measure_validation():
    with pytest.raises(ValueError):
        AtomicMeasure((F(0), F(0)), (F(1, 2), F(1, 2)))  # repeated atom
    with pytest.raises(ValueError):
        AtomicMeasure((F(0), F(1)), (F(1, 2), F(1, 3)))  # weights don't sum to 1
    with pytest.raises(ValueError):
        AtomicMeasure((F(0), F(1)), (F(3, 2), F(-1, 2)))  # negative weight
    with pytest.raises(ValueError):
        AtomicMeasure((F(1), F(0)), (F(1, 2), F(1, 2)))  # atoms out of order


def test_uniform_and_integer_discrete():
    m = AtomicMeasure.uniform([0, 2, 7])
    assert m.weights == (F(1, 3),) * 3
    assert m.is_uniform() and m.has_integer_atoms()
    with pytest.raises(ValueError):
        AtomicMeasure.integer_discrete([1, 2])  # must contain 0


def test_selfsimilar_validation():
    with pytest.raises(ValueError):
        SelfSimilarMeasure((1, 2), 4)  # 0 required
    with pytest.raises(ValueError):
        SelfSimilarMeasure((0, 1, 2, 3, 4), 4)  # too many digits
    mu = SelfSimilarMeasure((0, 2), 4)
    assert mu.support_radius == F(2, 3)


def test_mask_exact_at_integers_and_quarter_zeros():
    m = AtomicMeasure.uniform([0, 2])
    # these must be bit-exact, not merely close: the zero-set logic relies on it
    assert mask_eval(m, 7) == 1 + 0j
    assert mask_eval(m, F(1, 4)) == 0j
    assert mask_eval(m, F(3, 4)) == 0j
    weighted = AtomicMeasure((F(0), F(1)), (F(1, 3), F(2, 3)))
    assert mask_eval(weighted, F(1, 2)) == pytest.approx(-1 / 3)


@given(st.integers(-50, 50), st.integers(1, 24))
def test_mask_modulus_bounded_by_one(p, q):
    m = AtomicMeasure.uniform([0, 1, 3])
    assert abs(mask_eval(m, F(p, q))) <= 1 + 1e-12


@given(st.integers(-1000, 1000))
def test_mask_is_one_on_integers(k):
    m = AtomicMeasure((F(0), F(2), F(5)), (F(1, 6), F(1, 3), F(1, 2)))
    assert mask_eval(m, k) == 1 + 0j


def test_tail_bound_decreases_in_depth():
    mu = SelfSimilarMeasure((0, 2), 4)
    bounds = [tail_deviation_bound(mu, F(3, 2), J) for J in range(1, 8)]
    assert all(b > 0 for b in bounds)
    assert bounds == sorted(bounds, reverse=True)


def test_ft_selfsimilar_matches_atom_approximation():
    mu = SelfSimilarMeasure((0, 2), 4)
    policy = EvalPolicy(truncation_depth=30)
    eta = approximate_atoms(mu, 12)
    for xi in (F(1, 3), F(3, 2), F(7, 5), 2):
        v, err = ft_selfsimilar(mu, xi, policy)
        ref = mask_eval(eta, xi)
        # level-12 atoms approximate to ~ 2*pi*max|xi|*4^-12
        assert abs(v - ref) < 1e-5
        assert err < 1e-12


def test_ft_selfsimilar_certified_error():
    mu = SelfSimilarMeasure((0, 1), 4)
    shallow = EvalPolicy(truncation_depth=6)
    deep = EvalPolicy(truncation_depth=40)
    v6, e6 = ft_selfsimilar(mu, F(5, 3), shallow)
    v40, _ = ft_selfsimilar(mu, F(5, 3), deep)
    assert abs(v6 - v40) <= e6


def test_ft_lebesgue():
    assert ft_lebesgue01(0) == 1
    assert abs(ft_lebesgue01(F(1, 2))) == pytest.approx(2 / 3.141592653589793)
    assert ft_lebesgue01(3) == pytest.approx(0, abs=1e-15)


def test_convolution_transform_splits():
    eta = AtomicMeasure.uniform([0, 1])
    nu = SelfSimilarMeasure((0, 1), 4)
    mu = ConvolutionMeasure(eta, 2, nu)
    policy = EvalPolicy()
    xi = F(4, 3)
    v, err = ft_convolution(mu, xi, policy)
    mval = mask_eval(mu.dilated_discrete, xi)
    nval, nerr = ft_selfsimilar(nu, xi, policy)
    assert v == pytest.approx(mval * nval)
    assert err <= nerr + 1e-18


def test_ft_measure_dispatch():
    policy = EvalPolicy()
    m = AtomicMeasure.uniform([0, 3])
    v, err = ft_measure(m, F(1, 2), policy)
    assert err == 0.0
    assert v == mask_eval(m, F(1, 2))
    v, err = ft_measure(UnitIntervalLebesgue(), F(1, 2), policy)
    assert err == 0.0


def test_approximate_atoms_quarter_cantor():
    mu = SelfSimilarMeasure((0, 2), 4)
    eta = approximate_atoms(mu, 2)
    assert eta.atoms == (F(0), F(1, 8), F(1, 2), F(5, 8))
    assert eta.is_uniform()


def test_approximate_atoms_merges_collisions():
    # digits {0,4} at scale 4: 4/4 = 1 collides with the next level's 0+1
    mu = SelfSimilarMeasure((0, 4), 4)
    eta = approximate_atoms(mu, 2)
    assert sum(eta.weights) == 1
    assert len(eta.atoms) == len(set(eta.atoms))


def test_approximate_convolution_atoms():
    eta = AtomicMeasure((F(0), F(1)), (F(1, 3), F(2, 3)))
    mu = ConvolutionMeasure(eta, 1, SelfSimilarMeasure((0, 1), 4))
    out = approximate_convolution_atoms(mu, 1)
    assert out.atoms == (F(0), F(1, 4), F(1), F(5, 4))
    assert out.weights == (F(1, 6), F(1, 6), F(1, 3), F(1, 3))


@pytest.mark.parametrize(
    "measure",
    [
        AtomicMeasure((F(0), F(1, 2), F(3)), (F(1, 4), F(1, 4), F(1, 2))),
        SelfSimilarMeasure((0, 2), 4),
        UnitIntervalLebesgue(),
        ConvolutionMeasure(AtomicMeasure.uniform([0, 1]), 2, UnitIntervalLebesgue()),
        ConvolutionMeasure(
            AtomicMeasure((F(0), F(3)), (F(1, 3), F(2, 3))), 1, SelfSimilarMeasure((0, 1), 4)
        ),
    ],
)
def test_json_round_trip(measure):
    blob = measure_to_json(measure)
    assert measure_from_json(blob) == measure
    # rationals serialize as strings, so the JSON is exact
    parsed = json.loads(blob)
    assert parsed["type"] in {"atomic", "selfsimilar", "lebesgue", "convolution"}


def test_measure_dict_rejects_unknown_type():
    d = measure_to_dict(UnitIntervalLebesgue())
    d["type"] = "mystery"
    with pytest.raises(ValueError):
        measure_from_json(json.dumps(d))


def test_convolution_measure_validation():
    with pytest.raises(ValueError):
        # discrete factor must have integer atoms
        ConvolutionMeasure(
            AtomicMeasure((F(0), F(1, 2)), (F(1, 2), F(1, 2))), 1, UnitIntervalLebesgue()
        )
    with pytest.raises(ValueError):
        ConvolutionMeasure(AtomicMeasure.uniform([0, 1]), 0, UnitIntervalLebesgue())


@settings(max_examples=40)
@given(st.integers(1, 9), st.integers(2, 60))
def test_tail_bound_certifies_truncation(num, den):
    # the certified bound must dominate the actual truncation error
    mu = SelfSimilarMeasure((0, 1), 4)
    xi = F(num, den)
    v8, _ = ft_selfsimilar(mu, xi, EvalPolicy(truncation_depth=8))
    v40, _ = ft_selfsimilar(mu, xi, EvalPolicy(truncation_depth=40))
    assert abs(v8 - v40) <= tail_deviation_bound(mu, xi, 8) + 1e-15


# --- the batched phase kernel against the scalar Fraction loop -------------------


def fraction_loop_mask(measure, x):
    """Reference mask: each phase c*x reduced mod 1 in Fraction arithmetic,
    equal phases merged with exact weights, summed in phase order."""
    xq = F(x)
    phases = {}
    for c, p in zip(measure.atoms, measure.weights):
        r = frac_mod1(c * xq)
        phases[r] = phases.get(r, F(0)) + p
    total = 0j
    for r, w in sorted(phases.items()):
        total += (w.numerator / w.denominator) * unit_exp(r)
    return total


def exact_bits(z):
    return z.real.hex(), z.imag.hex()


def rationals(num_bits, max_den):
    return st.builds(
        F, st.integers(-(2**num_bits), 2**num_bits), st.integers(1, max_den)
    )


@st.composite
def atomic_measures(draw, atom):
    atoms = sorted(draw(st.sets(atom, min_size=1, max_size=6)))
    raw = draw(st.lists(st.integers(1, 50), min_size=len(atoms), max_size=len(atoms)))
    return AtomicMeasure(tuple(atoms), tuple(F(r, sum(raw)) for r in raw))


@settings(max_examples=150)
@given(atomic_measures(rationals(12, 40)), st.lists(rationals(30, 500), min_size=1, max_size=12))
def test_mask_batch_matches_fraction_loop(measure, xs):
    values = mask_values(measure, xs)
    for x, v in zip(xs, values):
        assert abs(v - fraction_loop_mask(measure, x)) <= 1e-15


@settings(max_examples=60)
@given(atomic_measures(rationals(70, 10**12)), st.lists(rationals(70, 10**9), min_size=1, max_size=6))
@example(AtomicMeasure((F(0),), (F(1),)), [F(2**63)])  # an operand alone beyond int64
def test_mask_batch_exact_past_int64(measure, xs):
    # products and moduli beyond int64 take the Python-int residue path
    residues, _ = phase_residues(RationalBatch.of(xs), RationalBatch.of(measure.atoms))
    assume(residues.dtype == object)
    for x, v in zip(xs, mask_values(measure, xs)):
        assert abs(v - fraction_loop_mask(measure, x)) <= 1e-15


def test_mask_batch_matches_fraction_loop_across_chunks():
    # 3000 points x 8 atoms spans several chunks of the kernel
    measure = AtomicMeasure(
        tuple(F(c, 7) for c in (0, 2, 3, 9, 11, 20, 26, 40)),
        tuple(F(w, 36) for w in (1, 2, 3, 4, 5, 6, 7, 8)),
    )
    xs = [F(k, 28) for k in range(-1500, 1500)]
    for x, v in zip(xs, mask_values(measure, xs)):
        assert abs(v - fraction_loop_mask(measure, x)) <= 1e-15


@given(
    st.lists(st.integers(-40, 40), min_size=1, max_size=5, unique=True),
    st.lists(st.integers(-(10**20), 10**20), min_size=1, max_size=20),
)
def test_mask_batch_bit_exact_one_at_integers(atoms, ks):
    atoms = sorted(atoms)
    weights = tuple(F(i + 1, len(atoms) * (len(atoms) + 1) // 2) for i in range(len(atoms)))
    measure = AtomicMeasure(tuple(F(a) for a in atoms), weights)
    assert all(v == 1 + 0j for v in mask_values(measure, ks))


@given(st.integers(-30, 30), st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=20))
def test_mask_batch_bit_exact_zero_at_quarter_zeros(a, ks):
    # atoms {a, a + 2}: at odd multiples of 1/4 the two phases differ by 1/2
    measure = AtomicMeasure.uniform([a, a + 2])
    xs = [F(2 * k + 1, 4) for k in ks]
    assert all(v == 0j for v in mask_values(measure, xs))
    spread = AtomicMeasure.uniform([0, 1, 2, 3])
    assert all(v == 0j for v in mask_values(spread, [F(k, 4) for k in (1, 2, 3, 5, -2)]))


@settings(max_examples=80)
@given(
    st.sets(rationals(10, 30), min_size=1, max_size=8),
    st.sets(rationals(10, 64), min_size=1, max_size=12),
)
def test_synthesis_matrix_bit_identical_to_unit_exp(atoms, freqs):
    system = ExponentialSystem(AtomicMeasure.uniform(atoms), freqs)
    V = synthesis_matrix(system)
    for i, lam in enumerate(system.frequencies):
        for j, c in enumerate(system.measure.atoms):
            assert exact_bits(V[i, j]) == exact_bits(unit_exp(-(lam * c)))
