"""Command-line front end.

Every subcommand prints a JSON report to stdout (or --out) with the layout

    {"schema": "spectra-forge/1", "command": ..., "input": ...,
     "verdict": ..., "witnesses": ..., "provenance": ..., "policy": ...}

with rationals rendered as "p/q" strings.  Exit codes: 0 when a verdict was
reached, 2 when the verdict is inconclusive, 1 on usage or input errors.
Scan subcommands (jp-scan, density-scan) are diagnostics: they can refute a
claim but never prove one, so a clean scan reports inconclusive.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from fractions import Fraction

from .certificates import Certificate
from .convolution import (
    IntegerLatticeGenerator,
    SelfSimilarTowerGenerator,
    gram_section,
    nonspectral_certificate,
    riesz_spectrum_convolution,
    spectrum_convolution,
)
from .cyclotomic import tile_certificate
from .frames import (
    ExponentialSystem,
    beurling_lower_density_proxy,
    frame_bounds,
    is_riesz_spectrum,
    random_vector_bounds,
)
from .measures import (
    AtomicMeasure,
    ConvolutionMeasure,
    EvalPolicy,
    SelfSimilarMeasure,
    UnitIntervalLebesgue,
    approximate_atoms,
    measure_from_dict,
)
from .rational import as_fraction, parse_rationals
from .spectra import classify_discrete, jp_scan, selfsimilar_spectrum

SCHEMA = "spectra-forge/1"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want exit(1)
        raise UsageError(message)


def positive_int(text: str) -> int:
    """argparse type for grid sizes and depths: an integer >= 1."""
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _parse_window(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"window must look like LO:HI, e.g. -100:100, got {text!r}")
    lo, hi = (as_fraction(p) for p in parts)
    if not lo < hi:
        raise UsageError(f"window needs LO < HI, got {text!r}")
    return lo, hi


def _parse_int_list(text: str) -> list[int]:
    values = parse_rationals(text)
    if any(v.denominator != 1 for v in values):
        raise UsageError(f"expected integers, got {text!r}")
    out = [int(v) for v in values]
    if len(set(out)) != len(out):
        raise UsageError(f"repeated entries in {text!r}")
    return out


def _parse_selfsimilar(text: str) -> SelfSimilarMeasure:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError("self-similar spec must look like DIGITS:SCALE, e.g. 0,2:4")
    return SelfSimilarMeasure(tuple(_parse_int_list(parts[0])), int(parts[1]))


def _parse_eta(text: str) -> AtomicMeasure:
    parts = text.split(":")
    atoms = _parse_int_list(parts[0])
    if len(parts) == 1:
        return AtomicMeasure.integer_discrete(atoms)
    if len(parts) == 2:
        return AtomicMeasure.integer_discrete(atoms, parse_rationals(parts[1]))
    raise UsageError("discrete factor must look like ATOMS or ATOMS:WEIGHTS")


def _parse_nu(text: str):
    if text == "lebesgue":
        return UnitIntervalLebesgue()
    if text.startswith("selfsimilar:"):
        return _parse_selfsimilar(text[len("selfsimilar:"):])
    raise UsageError("continuous factor must be 'lebesgue' or 'selfsimilar:DIGITS:SCALE'")


def _emit(report: dict, out_path) -> None:
    text = json.dumps(report, indent=2, sort_keys=False)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _report(command: str, inputs: dict, certificate: Certificate) -> dict:
    body = certificate.to_dict()
    return {"schema": SCHEMA, "command": command, "input": inputs, **body}


def _exit_code(certificate: Certificate) -> int:
    return 2 if certificate.verdict == "inconclusive" else 0


# ---------------------------------------------------------------------------
# subcommands


def _cmd_tile_analyze(args) -> int:
    cert = tile_certificate(_parse_int_list(args.set), args.n)
    if cert.complement is None:
        verdict = "no_tiling"
    elif cert.spectrum is not None:
        verdict = "spectral"
    else:
        verdict = "inconclusive"
    out = Certificate(
        verdict=verdict,
        witnesses={
            "complement": list(cert.complement) if cert.complement else None,
            "prime_power_divisors": list(cert.prime_powers),
            "t1": cert.t1,
            "t2": cert.t2,
            "spectrum": list(cert.spectrum) if cert.spectrum else None,
        },
        provenance="greedy complement search + tiling conditions + rational spectrum",
    )
    _emit(_report("tile-analyze", {"set": args.set, "n": args.n}, out), args.out)
    return _exit_code(out)


def _cmd_spectrum_find(args) -> int:
    if (args.atoms is None) == (args.selfsimilar is None):
        raise UsageError("give exactly one of --atoms or --selfsimilar")
    if args.atoms is not None:
        atoms = _parse_int_list(args.atoms)
        if args.weights is not None:
            measure = AtomicMeasure.integer_discrete(atoms, parse_rationals(args.weights))
            if not measure.is_uniform():
                out = Certificate(
                    verdict="not_spectral",
                    witnesses={"weights": list(measure.weights),
                               "reason": "finite spectral measures have equal weights"},
                    provenance="equal-weight necessity",
                )
                _emit(_report("spectrum-find",
                              {"atoms": args.atoms, "weights": args.weights}, out), args.out)
                return _exit_code(out)
        verdict, freqs, reason = classify_discrete(atoms)
        out = Certificate(
            verdict=verdict,
            witnesses={"spectrum": list(freqs) if freqs else None, "reason": reason},
            provenance="discrete classifier",
        )
        _emit(_report("spectrum-find",
                      {"atoms": args.atoms, "weights": args.weights}, out), args.out)
        return _exit_code(out)

    mu = _parse_selfsimilar(args.selfsimilar)
    inputs = {"selfsimilar": args.selfsimilar, "depth": args.depth}
    try:
        tower = selfsimilar_spectrum(mu, args.depth)
    except ValueError as exc:
        out = Certificate(
            verdict="inconclusive",
            witnesses={"reason": str(exc)},
            provenance="integer spectrum tower construction",
        )
        _emit(_report("spectrum-find", inputs, out), args.out)
        return _exit_code(out)
    out = Certificate(
        verdict="spectral",
        witnesses={"depth": args.depth, "spectrum_section": list(tower)},
        provenance="tiling digit set; integer spectrum tower",
        policy={"depth": args.depth},
    )
    _emit(_report("spectrum-find", inputs, out), args.out)
    return _exit_code(out)


def _load_system(path: str) -> tuple[AtomicMeasure, tuple[Fraction, ...]]:
    """Decode a --system file: {"measure": {...}, "frequencies": [...]}."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise UsageError("--system must hold a JSON object with 'measure' and 'frequencies'")
    if not isinstance(payload.get("measure"), dict):
        raise UsageError("--system 'measure' must be a JSON object")
    if not isinstance(payload.get("frequencies"), list):
        raise UsageError("--system 'frequencies' must be a JSON list of rationals")
    try:
        measure = measure_from_dict(payload["measure"])
        freqs = tuple(as_fraction(f) for f in payload["frequencies"])
    except TypeError as exc:  # floats, nested lists, wrong-typed fields
        raise UsageError(f"--system: {exc}") from exc
    if not isinstance(measure, AtomicMeasure):
        raise UsageError("frame bounds need an atomic measure")
    return measure, freqs


def _cmd_frame_bounds(args) -> int:
    if args.system:
        measure, freqs = _load_system(args.system)
        inputs = {"system": args.system}
    elif args.atoms and args.freqs:
        atoms = parse_rationals(args.atoms)
        weights = parse_rationals(args.weights) if args.weights else None
        measure = (AtomicMeasure(tuple(atoms), tuple(weights))
                   if weights else AtomicMeasure.uniform(atoms))
        freqs = parse_rationals(args.freqs)
        inputs = {"atoms": args.atoms, "weights": args.weights, "freqs": args.freqs}
    else:
        raise UsageError("give --system FILE or --atoms/--freqs (and optionally --weights)")

    system = ExponentialSystem(measure, freqs)
    fb = frame_bounds(system)
    riesz = is_riesz_spectrum(system)
    witnesses = {
        "lower": fb.lower,
        "upper": fb.upper,
        "condition_number": fb.condition_number,
        "frequency_count": system.frequency_count,
        "atom_count": system.atom_count,
        "riesz_basis": riesz,
    }
    if args.oracle:
        lo, hi = random_vector_bounds(system, seed=args.seed or 0)
        witnesses["oracle"] = {
            "empirical_lower": lo,
            "empirical_upper": hi,
            "bracket_ok": fb.lower - 1e-8 <= lo and hi <= fb.upper + 1e-8,
        }
    tol = 1e-9 * fb.upper if fb.upper > 0 else 0.0
    if riesz:
        verdict = "riesz_evidence"
    elif fb.lower > tol:
        verdict = "frame"
    else:
        verdict = "inconclusive"
    out = Certificate(
        verdict=verdict,
        witnesses=witnesses,
        provenance="extreme eigenvalues of the weighted Gram matrix (optimal bounds)",
    )
    _emit(_report("frame-bounds", inputs, out), args.out)
    return _exit_code(out)


def _cmd_jp_scan(args) -> int:
    mu_ss = _parse_selfsimilar(args.selfsimilar)
    freqs = selfsimilar_spectrum(mu_ss, args.depth)
    policy = EvalPolicy(truncation_depth=args.policy_depth, tolerance=args.tolerance)
    if args.approx_level:
        measure = approximate_atoms(mu_ss, args.approx_level)
    else:
        measure = mu_ss
    grid = [Fraction(k, args.grid_size) for k in range(args.grid_size)]
    result = jp_scan(measure, freqs, grid, policy)
    inputs = {
        "selfsimilar": args.selfsimilar,
        "depth": args.depth,
        "grid_size": args.grid_size,
        "approx_level": args.approx_level,
        "policy_depth": args.policy_depth,
        "tolerance": args.tolerance,
    }
    refuted = any(r.q_value - r.error_bound > 1.0 + policy.tolerance for r in result.rows)
    out = Certificate(
        verdict="not_spectral" if refuted else "inconclusive",
        witnesses={
            "max_abs_deviation": result.max_abs_deviation,
            "max_above_one": result.max_above_one,
            "bessel_ok": result.bessel_ok,
            "rows": len(result.rows),
            "consistent_with_orthonormal": result.max_abs_deviation <= policy.tolerance,
        },
        provenance="orthonormality scan (evidence only; can refute, never prove)",
        policy={"truncation_depth": policy.truncation_depth, "tolerance": policy.tolerance},
    )
    if args.csv:
        _write_csv(args.csv, ["x", "Q", "tail_error"],
                   [(float(r.x), r.q_value, r.error_bound) for r in result.rows])
    _emit(_report("jp-scan", inputs, out), args.out)
    return _exit_code(out)


def _cmd_convolve_build(args) -> int:
    eta = _parse_eta(args.eta)
    nu = _parse_nu(args.nu)
    mu = ConvolutionMeasure(eta, args.q, nu)
    policy = EvalPolicy(truncation_depth=args.policy_depth)
    cert = nonspectral_certificate(mu, policy)
    generator = (IntegerLatticeGenerator() if isinstance(nu, UnitIntervalLebesgue)
                 else SelfSimilarTowerGenerator(nu))
    witnesses = dict(cert.witnesses)

    if cert.verdict == "spectral":
        section = spectrum_convolution(
            mu, witnesses["discrete_frequencies"], generator, args.depth
        )
        witnesses["orthonormal_section"] = list(section.frequencies)
        witnesses["section_size"] = section.size
    else:
        floors = []
        for J in range(1, args.depth + 1):
            sec = riesz_spectrum_convolution(mu, generator, J)
            lo, hi = gram_section(mu, sec.frequencies, approx_depth=J + 2, policy=policy)
            floors.append({"depth": J, "lower": lo, "upper": hi, "size": sec.size})
        eps0 = min(f["lower"] for f in floors)
        # S and its determinant depend only on the dilated atoms, not on J
        witnesses["riesz_evidence"] = {
            "discrete_part": list(sec.discrete_part),
            "matrix_determinant_modulus": sec.witnesses["matrix_determinant_modulus"],
            "gram_sections": floors,
            "epsilon_0": eps0,
            "floor_ratio": eps0 / max(f["upper"] for f in floors),
        }
    out = Certificate(cert.verdict, witnesses, cert.provenance, cert.policy)
    inputs = {"eta": args.eta, "q": args.q, "nu": args.nu, "depth": args.depth,
              "policy_depth": args.policy_depth}
    _emit(_report("convolve-build", inputs, out), args.out)
    return _exit_code(out)


def _cmd_density_scan(args) -> int:
    if (args.freqs is None) == (args.selfsimilar is None):
        raise UsageError("give exactly one of --freqs or --selfsimilar")
    if args.freqs is not None:
        freqs = parse_rationals(args.freqs)
        inputs = {"freqs": args.freqs}
    else:
        mu = _parse_selfsimilar(args.selfsimilar)
        freqs = selfsimilar_spectrum(mu, args.depth)
        inputs = {"selfsimilar": args.selfsimilar, "depth": args.depth}
    lo, hi = _parse_window(args.window)
    h_values = [float(as_fraction(h)) for h in args.h.split(",")]
    rows = beurling_lower_density_proxy(freqs, (float(lo), float(hi)), h_values)
    inputs.update({"window": args.window, "h": args.h})
    out = Certificate(
        verdict="inconclusive",
        witnesses={"densities": [{"h": h, "density": d} for h, d in rows],
                   "frequency_count": len(freqs)},
        provenance="sliding-window density diagnostic (finite-h snapshot, not a liminf)",
    )
    if args.csv:
        _write_csv(args.csv, ["h", "density"], rows)
    _emit(_report("density-scan", inputs, out), args.out)
    return _exit_code(out)


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="spectraforge",
                     description="spectra, frames, and tilings for exact measures")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tile-analyze", help="complement search + tiling conditions")
    p.add_argument("--set", required=True, help="digit set, e.g. 0,1,2,3")
    p.add_argument("--n", type=int, required=True, help="modulus")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_tile_analyze)

    p = sub.add_parser("spectrum-find", help="orthonormal spectrum search")
    p.add_argument("--atoms", help="integer atoms, e.g. 0,1,2")
    p.add_argument("--weights", help="rational weights, e.g. 1/3,2/3")
    p.add_argument("--selfsimilar", help="DIGITS:SCALE, e.g. 0,2:4")
    p.add_argument("--depth", type=positive_int, default=4)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_spectrum_find)

    p = sub.add_parser("frame-bounds", help="optimal frame bounds of a finite system")
    p.add_argument("--system", help="JSON file with measure + frequencies")
    p.add_argument("--atoms")
    p.add_argument("--weights")
    p.add_argument("--freqs")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check with random test vectors")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_frame_bounds)

    p = sub.add_parser("jp-scan", help="orthonormality scan over a rational grid")
    p.add_argument("--selfsimilar", required=True, help="DIGITS:SCALE")
    p.add_argument("--depth", type=positive_int, default=4, help="spectrum tower depth")
    p.add_argument("--grid-size", type=positive_int, default=512)
    p.add_argument("--approx-level", type=int, default=0,
                   help="scan the level-J atomic approximation instead (0 = off)")
    p.add_argument("--policy-depth", type=positive_int, default=40)
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.add_argument("--csv", help="write x,Q,tail_error rows here")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_jp_scan)

    p = sub.add_parser("convolve-build", help="assemble spectra for a convolution")
    p.add_argument("--eta", required=True, help="ATOMS[:WEIGHTS], e.g. 0,1:1/3,2/3")
    p.add_argument("--q", type=int, default=1, help="dilation applied to eta")
    p.add_argument("--nu", required=True,
                   help="'lebesgue' or 'selfsimilar:DIGITS:SCALE'")
    p.add_argument("--depth", type=positive_int, default=4)
    p.add_argument("--policy-depth", type=positive_int, default=40)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_convolve_build)

    p = sub.add_parser("density-scan", help="sliding-window density diagnostic")
    p.add_argument("--freqs", help="explicit frequency list")
    p.add_argument("--selfsimilar", help="DIGITS:SCALE, tower source")
    p.add_argument("--depth", type=positive_int, default=4)
    p.add_argument("--window", default="-100:100", help="LO:HI")
    p.add_argument("--h", required=True, help="window lengths, e.g. 4,8,16")
    p.add_argument("--csv", help="write h,density rows here")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_density_scan)

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser every `run` uses: building one takes about a millisecond and
    leaves reference cycles for the collector, and parsing does not change it."""
    return build_parser()


def run(argv) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
