"""Reference answers for benchmark requests.

Nothing here imports spectraforge: each check is a closed form, a brute-force
search or a float recomputation written independently of the layer it
checks, so a defect in that layer cannot also hide in its oracle.
"""
from __future__ import annotations

import cmath
import itertools
import json
import math
from fractions import Fraction

import numpy as np


def parse_json(text: str):
    """Parse a JSON report.  Returns the value and the non-RFC 8259 literals
    (Infinity, -Infinity, NaN) it used; those parse to floats, so the rest of
    the report can still be checked."""
    literals = []

    def constant(name):
        literals.append(name)
        return float(name)

    return json.loads(text, parse_constant=constant), literals


def frac(text) -> Fraction:
    return Fraction(str(text))


# ---------------------------------------------------------------------------
# mask zeros of uniform integer digit sets


def unit_phase(t: Fraction) -> complex:
    """e^{2 pi i t} with t reduced mod 1 in exact arithmetic first."""
    r = t - math.floor(t)
    return cmath.exp(2j * math.pi * float(r))


def mask_abs(digits, x: Fraction) -> float:
    return abs(sum(unit_phase(d * x) for d in digits)) / len(digits)


def zero_orders(digits) -> frozenset:
    """Orders s >= 2 with the uniform mask of `digits` vanishing at 1/s, by
    float evaluation of the digit polynomial at the primitive root.  The mask
    vanishes at every k/s with gcd(k, s) = 1 iff it vanishes at 1/s."""
    deg = max(digits)
    return frozenset(
        s for s in range(2, 2 * deg * deg + 2)
        if abs(sum(cmath.exp(2j * math.pi * d / s) for d in digits)) < 1e-9
    )


def in_zero_set(x: Fraction, scale: int, orders: frozenset) -> bool:
    """Valuation rule for the zero set of a self-similar transform:
    x is a zero iff the reduced denominator of x / scale^j lies in `orders`
    for some j >= 1.  Dividing p/q by the scale gives denominator
    q * scale / gcd(p, scale): it never falls, and it stays put only while
    the numerator shrinks, so the search stops once it passes max(orders)."""
    p, q = x.numerator, x.denominator
    if p == 0:
        return False
    top = max(orders)
    while True:
        g = math.gcd(p, scale)
        p //= g
        q *= scale // g
        if q > top:
            return False
        if q in orders:
            return True


# ---------------------------------------------------------------------------
# tilings and small spectra


def tiles(digits, n: int):
    """Brute-force complement B (0 in B) with digits + B = {0..n-1}, or None."""
    A = sorted(digits)
    if n % len(A):
        return None
    k = n // len(A)
    for rest in itertools.combinations(range(1, n), k - 1):
        B = (0,) + rest
        if sorted(a + b for a in A for b in B) == list(range(n)):
            return B
    return None


def is_bizero_numeric(digits, spectrum) -> bool:
    return all(
        mask_abs(digits, hi - lo) < 1e-9
        for i, hi in enumerate(spectrum) for lo in spectrum[:i]
    )


def mask_zero_args(digits) -> list[Fraction]:
    """Zeros in (0, 1) of the uniform mask, from the unit-circle roots of the
    digit polynomial (numpy root finding), snapped to rationals."""
    coeffs = [0] * (max(digits) + 1)
    for d in digits:
        coeffs[d] = 1
    out = set()
    for r in np.roots(coeffs[::-1]):
        if abs(abs(r) - 1.0) < 1e-6:
            t = Fraction((np.angle(r) / (2 * np.pi)) % 1.0).limit_denominator(4 * len(coeffs) ** 2)
            if 0 < t < 1 and mask_abs(digits, t) < 1e-9:
                out.add(t)
    return sorted(out)


def has_spectrum(digits) -> bool:
    """Brute force: a uniform k-atom integer measure is spectral iff some
    {0} + (k-1) mask zeros in (0, 1) has all differences mod 1 among the
    zeros (the mask is 1-periodic and equals 1 on the integers)."""
    zeros = mask_zero_args(digits)
    zset = set(zeros)
    k = len(digits)
    for combo in itertools.combinations(zeros, k - 1):
        pts = (Fraction(0),) + combo
        if all(((b - a) % 1) in zset for i, b in enumerate(pts) for a in pts[:i]):
            return True
    return False


# ---------------------------------------------------------------------------
# frames


# singular values of V W below this share of the largest count as 0, so a
# floor below RANK_TOL**2 of the top eigenvalue is taken to be exactly 0
RANK_TOL = 1e-5


def frame_spectrum(atoms, weights, freqs) -> tuple[float, float, int]:
    """(floor, top, rank) of the frame operator W V* V W on L^2(mu), from the
    singular values of V W (numpy SVD, not an eigensolver): its eigenvalues
    are their squares, padded with zeros when there are fewer frequencies
    than atoms.  The floor is 0 whenever the rank is below the atom count."""
    V = np.array([[unit_phase(-(lam * c)) for c in atoms] for lam in freqs])
    B = V * np.sqrt([float(w) for w in weights])
    s = np.linalg.svd(B, compute_uv=False)
    rank = int(np.sum(s > RANK_TOL * s[0]))
    floor = float(s[-1] ** 2) if rank == len(atoms) else 0.0
    return floor, float(s[0] ** 2), rank


def riesz_matrix_invertible(atoms, freqs) -> bool:
    M = np.array([[unit_phase(lam * c) for c in atoms] for lam in freqs])
    hadamard = float(len(atoms)) ** (len(atoms) / 2.0)
    return abs(np.linalg.det(M)) > 1e-12 * hadamard


def plain_densities(freqs, lo: float, hi: float, hs) -> list[float]:
    """Minimum count / h over windows of length h inside [lo, hi]: the
    window [lo, lo+h), then each window (x, x+h] starting at a frequency."""
    xs = [float(x) for x in freqs]
    out = []
    for h in hs:
        best = sum(1 for y in xs if lo <= y < lo + h)
        for x in xs:
            if x >= lo and x + h <= hi:
                best = min(best, sum(1 for y in xs if x < y <= x + h))
        out.append(best / h)
    return out


# ---------------------------------------------------------------------------
# orthonormality scans


def tail_bound(digits, scale: int, xi: Fraction, depth: int) -> float:
    """Certified deviation bound of the omitted product tail past `depth`
    (each factor differs from 1 by at most 2 pi max(digits) |xi| / n^j)."""
    s = 2.0 * math.pi * max(digits) * abs(float(xi)) * scale ** (-depth) / (scale - 1)
    return math.expm1(s)
