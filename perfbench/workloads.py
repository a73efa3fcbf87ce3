"""Seeded request streams for the four benchmark workloads.

A workload is an endless sequence of rounds.  Every round holds the same
request classes in the same order; the seed draws each request's parameters
inside its class (grid sizes, windows, weights, frequencies).  Fixing the
class schedule keeps a run's mix, and so its medians, steady from seed to
seed; the parameters still differ, so each seed is a different input.

Each request is one call of a public entry point: `spectraforge.cli.run`
where a subcommand exists, otherwise the public library function.  Its
result is checked against an oracle from `oracles`, never against the layer
under test.  Library entry points are looked up on their module at call
time, so a tracer that rebinds them sees every call.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Hashable, Iterator, Optional

import oracles
from oracles import frac, in_zero_set, parse_json, zero_orders

HALF3 = Fraction(3, 2)

# the one wrong output the program is known to produce (ROADMAP item 4): it
# is counted and listed by request kind, apart from failed requests
NONFINITE_ZERO_FLOOR = "nonfinite_json_zero_floor"
KNOWN_DEFECTS = {
    NONFINITE_ZERO_FLOOR: "frame-bounds prints condition_number Infinity, which is not "
                          "RFC 8259 JSON, for a system whose floor an oracle confirms is 0",
}


class Failure(Exception):
    """A request's output is wrong; `reason` is a short class name."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


@dataclass
class Request:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    measure: Optional[Hashable] = None   # identity of the measure it touches
    atoms: int = 0                       # atom count of that measure
    matrix_dim: int = 0                  # largest matrix the request builds
    label: str = ""


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str


def expect(cond: bool, detail: str) -> None:
    if not cond:
        raise Failure("oracle", detail)


def cli_request(kind, argv, check_report, zero_floor=None, **meta) -> Request:
    """`check_report(report)` raises Failure or returns the expected exit
    code.  A report that uses Infinity or NaN is still checked in full and
    then fails; it is the known defect only if `zero_floor()` confirms it."""
    import spectraforge.cli as cli

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(list(argv))
        return CliResult(code, out.getvalue())

    def check(res: CliResult):
        try:
            report, literals = parse_json(res.stdout)
        except ValueError as exc:
            raise Failure("invalid_json", str(exc)) from None
        expected_code = check_report(report)
        if res.code != expected_code:
            raise Failure("exit_code", f"exit {res.code}, expected {expected_code}")
        if literals:
            known = zero_floor is not None and zero_floor()
            raise Failure(NONFINITE_ZERO_FLOOR if known else "nonfinite_json", ", ".join(literals))

    return Request(kind, call, check, label=" ".join(argv), **meta)


def parse_ss(spec: str) -> tuple[tuple[int, ...], int]:
    digits, scale = spec.split(":")
    return tuple(int(d) for d in digits.split(",")), int(scale)


def fmt(values) -> str:
    return ",".join(str(v) for v in values)


# ---------------------------------------------------------------------------
# qscan: Q-function scans of tiling Cantor measures


def jp_scan_request(spec, depth, grid, approx, policy_depth=40) -> Request:
    digits, scale = parse_ss(spec)
    k = len(digits)
    argv = ["jp-scan", "--selfsimilar", spec, "--depth", str(depth),
            "--grid-size", str(grid), "--approx-level", str(approx),
            "--policy-depth", str(policy_depth)]

    def check_report(rep):
        w = rep["witnesses"]
        expect(rep["verdict"] == "inconclusive", f"verdict {rep['verdict']}")
        expect(w["rows"] == grid, f"{w['rows']} rows")
        if approx:
            # level-J atoms against the depth-J tower: Q is exactly 1
            expect(w["max_abs_deviation"] < 1e-10, f"max|Q-1| = {w['max_abs_deviation']}")
        else:
            # |x + lambda| < 1 + scale^depth for every row and tower element
            e = oracles.tail_bound(digits, scale, Fraction(1 + scale**depth), policy_depth)
            tail = k**depth * (2 * e + e * e)
            expect(w["max_above_one"] <= tail + rep["policy"]["tolerance"],
                   f"Q - 1 = {w['max_above_one']} above tail {tail}")
        return 2

    return cli_request("jp_scan_atomic" if approx else "jp_scan_product", argv, check_report,
                       measure=(spec, approx), atoms=k**approx if approx else k)


# one round, cheapest first: two J = 2 scans of two-digit sets and two
# product-path scans; seven scans of 64 or 81 atom-frequency pairs, which the
# median and the 75th percentile fall inside; one J = 4 scan
QSCAN_SHALLOW = [("0,1:4", 2), ("0,4:8", 2)]
QSCAN_MIDDLE = [("0,2:4", 3), ("0,1:4", 3), ("0,3:6", 3), ("0,4:8", 3), ("0,1:6", 3), ("0,2:4", 3),
                ("0,1,2:6", 2)]
# the middle scans cost about the same per grid point, so a narrow grid band
# keeps them within about 10% of each other
MIDDLE_GRID = (352, 416)
QSCAN_DEEP = ["0,2:4", "0,1:4", "0,3:6", "0,4:8"]
QSCAN_PRODUCT = ["0,2:4", "0,3:6"]


def balanced(rng: random.Random, n: int, r: int, lo: int, hi: int) -> list[int]:
    """One value per class from n equal slices of [lo, hi] with a seeded
    offset; the class-to-slice assignment rotates each round, so every
    round has the same spread of values and each class visits every slice."""
    u = rng.random()
    return [lo + int(((i + r) % n + u) / n * (hi - lo + 1)) for i in range(n)]


def qscan_rounds(rng: random.Random) -> Iterator[list[Request]]:
    r = 0
    while True:
        out = []
        for group, (lo, hi) in ((QSCAN_SHALLOW, (256, 512)), (QSCAN_MIDDLE, MIDDLE_GRID)):
            for (spec, J), grid in zip(group, balanced(rng, len(group), r, lo, hi)):
                out.append(jp_scan_request(spec, J, grid, J))
        spec = QSCAN_DEEP[r % len(QSCAN_DEEP)]
        out.append(jp_scan_request(spec, 4, balanced(rng, 1, r, 256, 320)[0], 4))
        for i, (spec, grid) in enumerate(zip(QSCAN_PRODUCT, balanced(rng, 2, r, 8, 16))):
            out.append(jp_scan_request(spec, 2 + (r + i) % 2, grid, 0))
        r += 1
        yield out


def qscan_warmup() -> list[Request]:
    return [jp_scan_request("0,1:4", 2, 8, 2), jp_scan_request("0,1:4", 1, 4, 0)]


# ---------------------------------------------------------------------------
# certify: exact integer zero-set and cyclotomic work


def tower(spec: str, depth: int) -> tuple[Fraction, ...]:
    """Depth-J spectrum section built here, not by the library: a generator
    G (0 in G, #G = #digits) with (G - G)/scale inside the mask zeros, then
    the sums of scale^j-dilates of G for j < depth."""
    digits, scale = parse_ss(spec)
    k = len(digits)
    for rest in itertools.combinations(range(1, scale), k - 1):
        G = (0,) + rest
        if oracles.is_bizero_numeric(digits, [Fraction(g, scale) for g in G]):
            break
    else:
        raise ValueError(f"no generator for {spec}")
    out = [0]
    for j in range(depth):
        out = [t + scale**j * g for t in out for g in G]
    return tuple(Fraction(t) for t in sorted(out))


def membership_request(spec, start, width) -> Request:
    import spectraforge.measures as measures
    import spectraforge.spectra as spectra
    digits, scale = parse_ss(spec)
    mu = measures.SelfSimilarMeasure(digits, scale)
    window = range(start, start + width)

    def call():
        zeros = spectra.zero_set_descriptor(mu)
        member = spectra.zeroset_membership
        found = []
        for lam in window:
            if lam != 0 and member(zeros, lam):
                found.append((lam, member(zeros, HALF3 - lam)))
        return found

    def check(found):
        orders = zero_orders(digits)
        want = [(lam, in_zero_set(HALF3 - lam, scale, orders))
                for lam in window if lam != 0 and in_zero_set(Fraction(lam), scale, orders)]
        expect(found == want, f"membership differs on [{start}, {start + width})")

    return Request("zeroset_membership", call, check, measure=spec, atoms=len(digits),
                   label=f"zeroset_membership {spec} [{start}, {start + width})")


def bizero_request(spec, depth) -> Request:
    import spectraforge.measures as measures
    import spectraforge.spectra as spectra
    digits, scale = parse_ss(spec)
    mu = measures.SelfSimilarMeasure(digits, scale)
    freqs = tower(spec, depth)

    def call():
        cert = spectra.is_bizero(freqs, mu)
        return cert.ok, getattr(cert, "exact", None), len(getattr(cert, "witnesses", ()))

    def check(result):
        ok, exact, pairs = result
        n = len(freqs)
        expect(ok and exact, "tower section not certified bi-zero")
        expect(pairs == n * (n - 1) // 2, f"{pairs} pair witnesses for {n} frequencies")
        orders = zero_orders(digits)
        diffs = {b - a for i, b in enumerate(freqs) for a in freqs[:i]}
        expect(all(in_zero_set(d, scale, orders) for d in diffs), "a difference is not a zero")

    return Request("is_bizero", call, check, measure=spec, atoms=len(digits),
                   label=f"is_bizero {spec} depth {depth}")


def convolve_spectral_request(eta, depth) -> Request:
    argv = ["convolve-build", "--eta", eta, "--q", "2", "--nu", "selfsimilar:0,2:4",
            "--depth", str(depth)]
    a = int(eta.split(",")[1])
    nu_orders = zero_orders((0, 2))

    def zero(d: Fraction) -> bool:
        # dilated mask (1 + e(2 a d)) / 2 or the scale-4 Cantor transform
        return (2 * a * d).denominator == 2 or in_zero_set(d, 4, nu_orders)

    def check_report(rep):
        expect(rep["verdict"] == "spectral", f"verdict {rep['verdict']}")
        section = [frac(x) for x in rep["witnesses"]["orthonormal_section"]]
        expect(len(section) == 2 * 2**depth == len(set(section)), "section size")
        diffs = {b - a for i, b in enumerate(section) for a in section[:i]}
        expect(all(zero(d) for d in diffs), "a section difference is not a transform zero")
        return 0

    return cli_request("convolve_spectral", argv, check_report,
                       measure=("convolve", eta), atoms=2)


def tile_analyze_request(digits, n) -> Request:
    argv = ["tile-analyze", "--set", fmt(digits), "--n", str(n)]

    def check_report(rep):
        complement = oracles.tiles(digits, n)
        w = rep["witnesses"]
        if complement is None:
            expect(rep["verdict"] == "no_tiling", f"verdict {rep['verdict']}, no tiling exists")
            return 0
        # n <= 12 has at most two prime factors, where tiles are spectral
        expect(rep["verdict"] == "spectral", f"verdict {rep['verdict']} for a tile")
        B = w["complement"]
        expect(sorted(a + b for a in digits for b in B) == list(range(n)), "bad complement")
        spectrum = [frac(s) for s in w["spectrum"]]
        expect(len(spectrum) == len(digits), "spectrum size")
        expect(oracles.is_bizero_numeric(digits, spectrum), "spectrum is not bi-zero")
        return 0

    return cli_request("tile_analyze", argv, check_report, measure=("uniform", tuple(digits)),
                       atoms=len(digits))


def spectrum_find_request(digits) -> Request:
    argv = ["spectrum-find", "--atoms", fmt(digits)]

    def check_report(rep):
        spectral = oracles.has_spectrum(digits)
        expect(rep["verdict"] == ("spectral" if spectral else "not_spectral"),
               f"verdict {rep['verdict']}")
        if spectral:
            spectrum = [frac(s) for s in rep["witnesses"]["spectrum"]]
            expect(len(spectrum) == len(digits), "spectrum size")
            expect(oracles.is_bizero_numeric(digits, spectrum), "spectrum is not bi-zero")
        return 0

    return cli_request("spectrum_find", argv, check_report, measure=("uniform", tuple(digits)),
                       atoms=len(digits))


CERTIFY_BIZERO = [("0,2:4", 7), ("0,3:6", 6), ("0,1,2:6", 4), ("0,4:8", 7)]
CERTIFY_CONVOLVE = [4, 5, 6, 7]
TILE_MODULI = [4, 6, 8, 9, 10, 12]


def _small_set(rng, n, sizes) -> tuple[int, ...]:
    k = rng.choice([s for s in sizes if s < n])
    return tuple(sorted([0] + rng.sample(range(1, n), k - 1)))


def certify_rounds(rng: random.Random) -> Iterator[list[Request]]:
    """One round holds every convolve depth and tower class, so whole rounds
    keep the mix exact; the millisecond cyclotomic requests are two thirds
    of it, the 4000-integer membership batches sit at the 90th percentile."""
    while True:
        out = []
        starts6 = balanced(rng, 4, 0, -10**6, 10**6 - 6000)
        starts4 = balanced(rng, 4, 0, -10**6, 10**6 - 4000)
        for i, (tower_class, depth) in enumerate(zip(CERTIFY_BIZERO, CERTIFY_CONVOLVE)):
            out += [
                membership_request("0,2:6", starts6[i], 6000),
                membership_request("0,2:4", starts4[i], 4000),
                bizero_request(*tower_class),
                convolve_spectral_request(rng.choice(["0,1", "0,3", "0,5"]), depth),
            ]
            for _ in range(4):
                n = rng.choice(TILE_MODULI)
                out.append(tile_analyze_request(
                    _small_set(rng, n, [d for d in range(2, n) if n % d == 0]), n))
            for size in (3, 3, 4, 4):
                out.append(spectrum_find_request(_small_set(rng, 12, [size])))
        yield out


def certify_warmup() -> list[Request]:
    return [membership_request("0,2:6", 1, 50), bizero_request("0,2:4", 2),
            convolve_spectral_request("0,1", 1), tile_analyze_request((0, 1), 4),
            spectrum_find_request((0, 1, 2))]


# ---------------------------------------------------------------------------
# gram: Riesz evidence from Gram sections of weighted convolutions


GRAM_NU = ["0,1:4", "0,2:4", "0,1:6"]
GRAM_ETA3 = [(0, 1, 2), (0, 1, 3)]


def convolve_gram_request(eta_atoms, weights, nu, depth) -> Request:
    eta = f"{fmt(eta_atoms)}:{fmt(weights)}"
    argv = ["convolve-build", "--eta", eta, "--q", "1", "--nu", f"selfsimilar:{nu}",
            "--depth", str(depth)]

    def check_report(rep):
        expect(rep["verdict"] == "not_spectral", f"verdict {rep['verdict']}")
        expect("equal-weight" in rep["provenance"], "not the equal-weight obstruction")
        ev = rep["witnesses"]["riesz_evidence"]
        floors = [row["lower"] for row in ev["gram_sections"]]
        expect(len(floors) == depth, f"{len(floors)} sections")
        expect(all(lo > 0 for lo in floors), "a Gram floor is not positive")
        expect(max(floors) <= 2 * min(floors), "floors unstable beyond a factor of 2")
        expect(ev["epsilon_0"] == min(floors), "epsilon_0 is not the least floor")
        return 0

    k = len(eta_atoms)
    return cli_request("convolve_gram", argv, check_report, measure=(eta, nu), atoms=k,
                       matrix_dim=k * 2**depth)


def interval_union_request(intervals, depth) -> Request:
    import spectraforge.convolution as convolution

    def call():
        out = convolution.interval_union_rspectrum(intervals, depth)
        return out.scale, out.offsets, out.discrete_part, out.gram_lower, out.gram_upper

    def check(result):
        scale, offsets, S, lower, upper = result
        r = math.lcm(*(e.denominator for ab in intervals for e in ab))
        shift = -r * intervals[0][0]
        cells = sorted(int(r * a + shift) + i
                       for a, b in intervals for i in range(int(r * (b - a))))
        expect(scale == r and list(offsets) == cells, "scaling or offsets")
        expect(len(S) == len(cells), "discrete part size")
        # r (S + Z) is Bessel with bound #offsets; a section cannot exceed it
        expect(0 < lower <= upper <= len(cells) + 1e-9, f"section eigenvalues [{lower}, {upper}]")

    n_cells = sum(int(math.lcm(*(e.denominator for ab in intervals for e in ab)) * (b - a))
                  for a, b in intervals)
    return Request("interval_union", call, check, measure=("intervals", tuple(intervals)),
                   atoms=n_cells, matrix_dim=n_cells * (2 * depth + 1),
                   label=f"interval_union_rspectrum {intervals} depth {depth}")


def _intervals(rng) -> tuple[tuple[Fraction, Fraction], ...]:
    q = rng.choice([2, 3, 4])
    out, pos = [], Fraction(rng.randint(-4, 4), q)
    for _ in range(rng.choice([2, 3])):
        length = Fraction(rng.randint(1, 2), q)
        out.append((pos, pos + length))
        pos += length + Fraction(rng.randint(1, 3), q)
    return tuple(out)


def _weights(rng, k) -> tuple[Fraction, ...]:
    while True:
        raw = [rng.randint(1, 9) for _ in range(k)]
        if len(set(raw)) > 1:
            return tuple(Fraction(x, sum(raw)) for x in raw)


def gram_rounds(rng: random.Random) -> Iterator[list[Request]]:
    """One round, cheapest first, sections of (eta atoms) x 2^depth rows: an
    interval union, one 8-row and two 12-row sections, four 16-row ones, four
    24-row ones and one depth-4 32-row one.  The median falls inside the
    16-row sections and the 75th percentile inside the 24-row ones, away
    from the edges of either group.  Each round rotates the measures nu."""
    r = 0
    while True:
        nus = GRAM_NU[r % 3:] + GRAM_NU[:r % 3]
        out = [interval_union_request(_intervals(rng), rng.randint(1, 4)),
               convolve_gram_request((0, rng.choice([1, 2])), _weights(rng, 2), nus[0], 2)]
        out += [convolve_gram_request(rng.choice(GRAM_ETA3), _weights(rng, 3), nu, 2)
                for nu in nus[1:]]
        out += [convolve_gram_request((0, 1), _weights(rng, 2), nus[i % 3], 3) for i in range(4)]
        out += [convolve_gram_request(GRAM_ETA3[i % 2], _weights(rng, 3), nus[i % 3], 3)
                for i in range(4)]
        out.append(convolve_gram_request((0, 1), _weights(rng, 2), nus[0], 4))
        r += 1
        yield out


def gram_warmup() -> list[Request]:
    halves = ((Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(3, 2)))
    return [convolve_gram_request((0, 1), (Fraction(1, 3), Fraction(2, 3)), "0,1:4", 1),
            interval_union_request(halves, 1)]


# ---------------------------------------------------------------------------
# frames: many small frame-bound, Riesz-search and density requests


def frame_bounds_request(atoms, weights, freqs, oracle_seed=None) -> Request:
    # "--opt=value": values may start with "-"
    argv = ["frame-bounds", f"--atoms={fmt(atoms)}", f"--weights={fmt(weights)}",
            f"--freqs={fmt(freqs)}"]
    if oracle_seed is not None:
        argv += ["--oracle", "--seed", str(oracle_seed)]
    n, m = len(atoms), len(freqs)
    fa = [Fraction(a) for a in atoms]

    def zero_floor():
        return oracles.frame_spectrum(fa, weights, freqs)[2] < n

    def check_report(rep):
        w = rep["witnesses"]
        lower, upper = w["lower"], w["upper"]
        expect(w["atom_count"] == n and w["frequency_count"] == m, "system size")
        floor, top, _ = oracles.frame_spectrum(fa, weights, freqs)
        tol = 1e-9 * top
        expect(abs(lower - floor) <= tol and abs(upper - top) <= tol,
               f"bounds [{lower}, {upper}], oracle [{floor}, {top}]")
        # the n eigenvalues of W V* V W sum to its trace, m
        expect(n * lower <= m + tol and n * upper >= m - tol, "bounds miss the mean eigenvalue")
        cond = upper / lower if lower > 0 else math.inf
        expect(math.isclose(w["condition_number"], cond, rel_tol=1e-9),
               f"condition number {w['condition_number']}, expected {cond}")
        expect(not w["riesz_basis"] or m == n, "Riesz basis with #freqs != #atoms")
        if oracle_seed is not None:
            o = w["oracle"]
            expect(o["bracket_ok"] and lower - 1e-8 <= o["empirical_lower"]
                   and o["empirical_upper"] <= upper + 1e-8, "--oracle bracket fails")
        verdict = rep["verdict"]
        expect((verdict == "riesz_evidence") == w["riesz_basis"], f"verdict {verdict}")
        expect(verdict != "frame" or lower > 0, "frame verdict with a zero floor")
        return 2 if verdict == "inconclusive" else 0

    return cli_request("frame_bounds_oracle" if oracle_seed is not None else "frame_bounds",
                       argv, check_report, zero_floor,
                       measure=("atomic", tuple(atoms), tuple(weights)), atoms=n,
                       matrix_dim=max(n, m))


PAIR = ((0, 1), (Fraction(1, 3), Fraction(2, 3)))


def weighted_pair_request() -> Request:
    argv = ["frame-bounds", "--atoms", "0,1", "--weights", "1/3,2/3", "--freqs", "0,1/2"]

    def check_report(rep):
        w = rep["witnesses"]
        expect(abs(w["lower"] - 2 / 3) < 1e-12 and abs(w["upper"] - 4 / 3) < 1e-12,
               f"weighted pair bounds [{w['lower']}, {w['upper']}]")
        return 0

    return cli_request("frame_bounds_pair", argv, check_report, measure=("atomic", *PAIR),
                       atoms=2, matrix_dim=2)


def riesz_search_request(atoms, seed) -> Request:
    import spectraforge.frames as frames

    def call():
        return frames.find_riesz_spectrum(list(atoms), strategy="random", seed=seed)

    def check(freqs):
        expect(len(freqs) == len(atoms) == len(set(freqs)) and Fraction(0) in freqs,
               "frequency count")
        expect(all(0 <= f < 1 for f in freqs), "frequencies outside [0, 1)")
        expect(oracles.riesz_matrix_invertible(atoms, freqs), "exponential matrix is singular")

    return Request("find_riesz_spectrum", call, check,
                   measure=("uniform", tuple(atoms)), atoms=len(atoms),
                   matrix_dim=len(atoms), label=f"find_riesz_spectrum {atoms} seed {seed}")


def density_request(freqs, lo, hi, hs) -> Request:
    argv = ["density-scan", f"--freqs={fmt(freqs)}", f"--window={lo}:{hi}", f"--h={fmt(hs)}"]

    def check_report(rep):
        w = rep["witnesses"]
        got = [row["density"] for row in w["densities"]]
        expect(got == oracles.plain_densities(freqs, lo, hi, hs), "densities differ from a count")
        expect(w["frequency_count"] == len(freqs), "frequency count")
        return 2

    return cli_request("density_scan", argv, check_report)


def _fresh(rng, seen, draw):
    """Redraw until the measure is new to the run: no frames measure repeats."""
    while True:
        value = draw()
        if value not in seen:
            seen.add(value)
            return value


def frames_rounds(rng: random.Random) -> Iterator[list[Request]]:
    seen = {PAIR}

    def system():
        n = rng.randint(2, 8)
        atoms = tuple(sorted(rng.sample(range(0, 40), n)))
        raw = [rng.randint(1, 9) for _ in range(n)]
        return atoms, tuple(Fraction(x, sum(raw)) for x in raw)

    def riesz_atoms():
        return (0,) + tuple(sorted(rng.sample(range(1, 40), rng.randint(2, 7))))

    yield [weighted_pair_request()]
    while True:
        out = []
        for i in range(6):
            atoms, weights = _fresh(rng, seen, system)
            m = rng.randint(1, 16)
            freqs = sorted({Fraction(rng.randint(-32, 32), rng.randint(1, 16)) for _ in range(m)})
            out.append(frame_bounds_request(atoms, weights, freqs,
                                            rng.randrange(10**6) if i % 3 == 0 else None))
        for _ in range(2):
            out.append(riesz_search_request(_fresh(rng, seen, riesz_atoms), rng.randrange(10**6)))
        for _ in range(2):
            lo = rng.randint(-20, 0)
            hi = lo + rng.choice([16, 32, 64])
            k = rng.randint(8, 40)
            freqs = sorted({Fraction(rng.randint(lo * 8, hi * 8), 8) for _ in range(k)})
            hs = [(hi - lo) // 16, (hi - lo) // 8, (hi - lo) // 4]
            out.append(density_request(freqs, lo, hi, hs))
        yield out


def frames_warmup() -> list[Request]:
    half = Fraction(1, 2)
    return [frame_bounds_request((0, 3), (half, half), [Fraction(0), Fraction(1, 5)], 1),
            riesz_search_request((0, 1, 5), 1),
            density_request([Fraction(0), Fraction(1), Fraction(5, 2)], 0, 8, [1, 2])]


WORKLOADS = {
    "qscan": (qscan_rounds, qscan_warmup),
    "certify": (certify_rounds, certify_warmup),
    "gram": (gram_rounds, gram_warmup),
    "frames": (frames_rounds, frames_warmup),
}
