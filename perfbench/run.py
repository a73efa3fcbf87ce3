"""Closed-loop request benchmark for spectraforge.

    python3 perfbench/run.py --workload qscan --seed 1 --seconds 25 --trace 0

One client sends one request at a time and sends the next as soon as the
previous one returns.  Inputs come from `--seed`; spectraforge is imported
from `src/` of the checkout holding this file and sees only the generated
inputs.  Every output is checked against an independent oracle.

`--trace 0` measures the end-to-end metrics with tracing off.  `--trace 1`
traces a fixed prefix of the same request stream layer by layer, then
replays that prefix untraced to report the tracing overhead and to check
that traced and untraced outputs are identical.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it spell out every
metric with its unit, the run's composition and its failures by request
kind.  A full record is written to `.perfbench/` in the checkout.  The exit
code is 0 when no request failed, 1 when one did, and 2 when the benchmark
could not run.  Outputs that match a known defect of the program
(`workloads.KNOWN_DEFECTS`) are listed by request kind but do not count as
failed.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import chain, islice
from pathlib import Path
from typing import NamedTuple, Optional

BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_PROBES = 7
# rounds traced by --trace 1 (a fixed prefix, so its counts repeat exactly)
TRACE_ROUNDS = {"qscan": 2, "certify": 3, "gram": 2, "frames": 200}
# tail percentile per workload: a rung of TAIL_LADDER with at least ten
# samples beyond it at this workload's request count, chosen to fall inside
# the slowest group of near-equal requests rather than on a group's edge
# (for frames, the middle of the --oracle requests, because its p99 is set
# by timing spikes from other load on the host rather than by the program)
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_PCT = {"qscan": 75, "certify": 90, "gram": 75, "frames": 90}

END_TO_END = [
    ("latency_p50_s", "s", "lower"),
    ("latency_tail_s", "s", "lower"),
    ("throughput_rps", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]


def _ratio(a, b):
    return a / b if b else 0.0


def _calls(fn):
    return lambda t, c: t.calls.get(fn, 0)


def _self(fn):
    return lambda t, c: t.self_s.get(fn, 0.0)


def _count(fn, key):
    return lambda t, c: t.counters.get((fn, key), 0)


def _count_ratio(fn, num, den):
    return lambda t, c: _ratio(t.counters.get((fn, num), 0), t.counters.get((fn, den), 0))


def _hit_ratio(t, c):
    return _ratio(t.counters.get(("spectra.locate", "hits"), 0), t.calls.get("spectra.locate", 0))


def _reuse_ratio(t, c):
    fn = "spectra.zero_set_descriptor"
    return _ratio(len(t.distinct.get((fn, "distinct_measures"), ())), t.calls.get(fn, 0))


def _layer(layer):
    return lambda t, c: t.layer_self_s().get(layer, 0.0)


def _metric(fn, what):
    """(name, unit, better, getter) for `calls`, `self_s` or a work counter."""
    if what == "calls":
        return f"{fn}.calls", "count", "lower", _calls(fn)
    if what == "self_s":
        return f"{fn}.self_s", "s", "lower", _self(fn)
    return f"{fn}.{what}", "count", "lower", _count(fn, what)


LAYER_NAMES = ("rational", "measures", "spectra", "cyclotomic", "frames",
               "convolution", "certificates", "cli", "eigen")

GRAM = "convolution.gram_section"

# (name, unit, better, getter(tracer, context)); the order is BENCHMARK.json's
PER_LAYER = [
    _metric("rational.unit_exp", "calls"),
    _metric("rational.unit_exp", "self_s"),
    _metric("rational.frac_mod1", "calls"),
    *[_metric("measures.mask_eval", w) for w in ("calls", "self_s", "atom_terms")],
    *[_metric("measures.ft_selfsimilar", w) for w in ("calls", "self_s", "factors")],
    _metric("measures.approximate_atoms", "self_s"),
    _metric("measures.approximate_convolution_atoms", "self_s"),
    _metric("measures.approximate_convolution_atoms", "atoms"),
    *[_metric(GRAM, w) for w in ("self_s", "entries", "distinct_differences")],
    (f"{GRAM}.useful_ratio", "ratio", "higher",
     _count_ratio(GRAM, "distinct_differences", "entries")),
    _metric("spectra.locate", "calls"),
    _metric("spectra.locate", "self_s"),
    ("spectra.locate.hit_ratio", "ratio", "higher", _hit_ratio),
    _metric("spectra.zero_set_descriptor", "calls"),
    ("spectra.zero_set_descriptor.reuse_ratio", "ratio", "higher", _reuse_ratio),
    _metric("spectra.is_bizero", "pairs"),
    _metric("spectra.is_bizero", "self_s"),
    _metric("convolution.spectrum_convolution", "pairs"),
    _metric("convolution.spectrum_convolution", "self_s"),
    *[_metric(f"cyclotomic.{fn}", w)
      for fn in ("divides_cyclotomic", "cyclotomic_divisor_orders", "tiling_complement",
                 "laba_spectrum")
      for w in ("calls", "self_s")],
    _metric("spectra.jp_scan", "self_s"),
    _metric("spectra.selfsimilar_spectrum", "self_s"),
    *[_metric(f"frames.{fn}", "self_s")
      for fn in ("synthesis_matrix", "frame_bounds", "random_vector_bounds",
                 "find_riesz_spectrum", "beurling_lower_density_proxy")],
    _metric("frames.synthesis_matrix", "entries"),
    *[_metric("eigen.eigvalsh", w) for w in ("calls", "self_s", "max_dim")],
    _metric("convolution.riesz_spectrum_convolution", "self_s"),
    _metric("convolution.nonspectral_certificate", "self_s"),
    _metric("cli.run", "self_s"),
    ("cli.report_bytes", "bytes", "lower", lambda t, c: c["report_bytes"]),
    _metric("certificates.jsonify", "self_s"),
    *[(f"layer.{layer}.self_s", "s", "lower", _layer(layer)) for layer in LAYER_NAMES],
    ("trace.overhead_s", "s", "lower", lambda t, c: c["overhead_s"]),
]


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not (SRC / "spectraforge" / "__init__.py").is_file():
        fail_setup(f"no spectraforge sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import spectraforge
    if Path(spectraforge.__file__).resolve().parent != SRC / "spectraforge":
        fail_setup(f"imported spectraforge from {spectraforge.__file__}, not from {SRC}")
    return spectraforge


def set_up(workload: str, seed: int):
    """Everything before the first timed request: import, the first round of
    inputs and one warm-up request of each kind.  Later rounds are generated
    between requests, untimed.  What exists by then is frozen out of the
    garbage collector, so collections inside timed requests do not rescan
    the benchmark's own objects."""
    import_program()
    import workloads
    rounds_fn, warmup_fn = workloads.WORKLOADS[workload]
    rounds = rounds_fn(random.Random(f"{workload}:{seed}"))
    first = next(rounds)
    for req in warmup_fn():
        req.call()
    gc.collect()
    gc.freeze()
    return chain([first], rounds)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that do the set-up and exit."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail_setup(f"set-up probe failed: {proc.stderr.strip()}")
    return times


class Row(NamedTuple):
    kind: str
    latency: float
    reason: Optional[str]
    measure: object
    atoms: int
    matrix_dim: int
    label: Optional[str]     # kept for failed requests only


def drive(rounds, seconds, tracer=None, keep_results=False):
    """Closed loop: send each request after the previous returns.  Whole
    rounds run until the busy time reaches `seconds`, so every run has the
    same mix.  Oracle checks run between requests and are not timed."""
    from workloads import Failure
    rows, results = [], []
    busy = 0.0
    for batch in rounds:
        if busy >= seconds:
            break
        for req in batch:
            if tracer is not None:
                tracer.begin(len(rows), req.kind)
            t0 = time.perf_counter()
            try:
                result = req.call()
                reason = None
            except Exception as exc:  # a request that raises is a failed request
                result, reason = None, f"raised {type(exc).__name__}"
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.end()
            busy += latency
            if reason is None:
                try:
                    req.check(result)
                except Failure as exc:
                    reason = exc.reason
                except (KeyError, TypeError, ValueError, IndexError) as exc:
                    reason = f"malformed report ({type(exc).__name__})"
            rows.append(Row(req.kind, latency, reason, req.measure, req.atoms, req.matrix_dim,
                            req.label if reason else None))
            if keep_results:
                results.append(result)
    return rows, results, busy


def tail_percentile(workload: str, n: int) -> float:
    """The workload's rung, or the highest lower rung that still leaves ten
    samples beyond it when a run completes fewer requests."""
    pct = TAIL_PCT[workload]
    for rung in sorted(TAIL_LADDER, reverse=True):
        if rung <= pct and n - _rank(rung, n) - 1 >= 10:
            return rung
    return TAIL_LADDER[0]


def _rank(pct: float, n: int) -> int:
    """0-based nearest-rank index of the pct-th percentile of n samples."""
    return max(0, min(n - 1, -(-int(pct * n * 10) // 1000) - 1))


def composition(rows) -> dict:
    kinds = Counter(row.kind for row in rows)
    seen, repeats = set(), 0
    for row in rows:
        if row.measure is not None:
            repeats += row.measure in seen
            seen.add(row.measure)
    atoms = [row.atoms for row in rows]
    return {
        "requests_by_kind": dict(sorted(kinds.items())),
        "repeated_measure_share": _ratio(repeats, len(rows)),
        "distinct_measures": len(seen),
        "atoms_total": sum(atoms),
        "atoms_max": max(atoms, default=0),
        "max_matrix_dim": max((row.matrix_dim for row in rows), default=0),
    }


def failures(rows) -> tuple[dict, int]:
    """Wrong outputs by request kind, and how many requests failed.  An
    output that matches a known defect (`workloads.KNOWN_DEFECTS`) has been
    checked as fully as any other; it is counted and listed by kind under
    `known_defects`, but it is not a failed request, so only a regression
    fails the run."""
    from workloads import KNOWN_DEFECTS
    by_kind: dict = {}
    totals = Counter(row.kind for row in rows)
    for row in rows:
        if row.reason is None:
            continue
        entry = by_kind.setdefault(row.kind, {"attempted": totals[row.kind], "failed": 0,
                                              "known_defects": 0, "reasons": Counter(),
                                              "examples": []})
        entry["known_defects" if row.reason in KNOWN_DEFECTS else "failed"] += 1
        entry["reasons"][row.reason] += 1
        if len(entry["examples"]) < 3:
            entry["examples"].append(row.label)
    for entry in by_kind.values():
        entry["reasons"] = dict(entry["reasons"])
        entry["known_defect"] = sorted(KNOWN_DEFECTS[r] for r in entry["reasons"]
                                       if r in KNOWN_DEFECTS)
    return by_kind, sum(entry["failed"] for entry in by_kind.values())


def environment() -> dict:
    import numpy
    head = ROOT / ".git" / "HEAD"
    commit = "unavailable (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "machine": platform.machine(),
    }


def write_record(workload, seed, trace, record, extra_trace=None) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    if extra_trace is not None:
        (OUT_DIR / f"{workload}-seed{seed}-spans.json").write_text(
            json.dumps(extra_trace, default=str) + "\n")
    return path


def print_failures(by_kind) -> None:
    for kind, entry in sorted(by_kind.items()):
        if entry["failed"]:
            print(f"  failed {kind}: {entry['failed']}/{entry['attempted']} {entry['reasons']}")
        if entry["known_defects"]:
            print(f"  known defect {kind}: {entry['known_defects']}/{entry['attempted']} "
                  f"({entry['known_defects'] / entry['attempted']:.3f}): "
                  f"{entry['known_defect'][0]}")


def run_untraced(args, rounds) -> tuple[dict, dict]:
    rows, _, busy = drive(rounds, args.seconds)
    lat = sorted(row.latency for row in rows)
    n = len(lat)
    pct = tail_percentile(args.workload, n)
    metrics = {
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": lat[_rank(pct, n)],
        "throughput_rps": n / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(args.setup_times),
    }
    by_kind: dict = {}
    for row in rows:
        by_kind.setdefault(row.kind, []).append(row.latency)
    info = {
        "samples": n, "busy_s": busy, "tail_percentile": pct,
        "latency_by_kind": {k: {"n": len(v), "p50_s": statistics.median(v), "max_s": max(v)}
                            for k, v in sorted(by_kind.items())},
        "setup_probes_s": args.setup_times, "rows": rows,
    }
    return metrics, info


def run_traced(args, rounds) -> tuple[dict, dict]:
    """Trace a fixed prefix of rounds.  Each request runs traced, then again
    untraced right after it (order alternating), so the overhead compares
    runs a moment apart and the two outputs must be identical."""
    from tracer import Tracer
    prefix = list(islice(rounds, TRACE_ROUNDS[args.workload]))
    tracer = Tracer()
    rows, mismatched = [], []
    traced_busy = untraced_busy = 0.0
    report_bytes = 0
    for i, req in enumerate(chain.from_iterable(prefix)):
        if traced_busy >= args.seconds:
            break
        passes = ("traced", "plain") if i % 2 == 0 else ("plain", "traced")
        outputs = {}
        for mode in passes:
            if mode == "traced":
                tracer.install()
                try:
                    [row], [outputs[mode]], busy = drive([[req]], float("inf"), tracer,
                                                         keep_results=True)
                finally:
                    tracer.uninstall()
                rows.append(row)
                traced_busy += busy
            else:
                _, [outputs[mode]], busy = drive([[req]], float("inf"), keep_results=True)
                untraced_busy += busy
        if outputs["traced"] != outputs["plain"]:
            mismatched.append(req.label)
        report_bytes += len(getattr(outputs["traced"], "stdout", "").encode())
    ctx = {"report_bytes": report_bytes, "overhead_s": traced_busy - untraced_busy}
    metrics = {name: fn(tracer, ctx) for name, _, _, fn in PER_LAYER}
    info = {
        "samples": len(rows), "traced_busy_s": traced_busy, "untraced_busy_s": untraced_busy,
        "overhead_ratio": _ratio(traced_busy - untraced_busy, untraced_busy),
        "truncated": len(rows) < sum(map(len, prefix)), "mismatched": mismatched,
        "rows": rows,
        "layer_self_s": dict(sorted(tracer.layer_self_s().items(), key=lambda kv: -kv[1])),
        "span_self_s_top": dict(sorted(tracer.span_self_s().items(), key=lambda kv: -kv[1])[:15]),
        "tracer": tracer,
    }
    return metrics, info


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(TRACE_ROUNDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        set_up(args.workload, args.seed)
        return 0
    args.setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    rounds = set_up(args.workload, args.seed)

    if args.trace:
        metrics, info = run_traced(args, rounds)
        units = {name: unit for name, unit, _, _ in PER_LAYER}
    else:
        metrics, info = run_untraced(args, rounds)
        units = {name: unit for name, unit, _ in END_TO_END}
    rows = info.pop("rows")
    by_kind, failed = failures(rows)
    correct = failed == 0 and not (args.trace and info["mismatched"])
    attempted = len(rows)
    known = sum(entry["known_defects"] for entry in by_kind.values())
    comp = composition(rows)
    env = environment()

    tracer = info.pop("tracer", None)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "correct": correct, "attempted": attempted, "failed": failed,
              "known_defects": known,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
              "run": info, "composition": comp, "failures": by_kind, "environment": env}
    path = write_record(args.workload, args.seed, args.trace, record,
                        tracer.dump() if tracer is not None else None)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} requests, {failed} failed, {known} known defects, "
          f"closed loop, 1 client")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    if not args.trace:
        print(f"  failed_ratio = {failed / attempted:.6g} ratio")
        print(f"  (tail = p{info['tail_percentile']:g} of {info['samples']} samples; "
              f"setup = median of {SETUP_PROBES} fresh processes)")
    else:
        print(f"  tracing overhead = {metrics['trace.overhead_s']:.3f} s "
              f"({info['overhead_ratio']:.1%} of {info['untraced_busy_s']:.3f} s untraced)")
        print("  self time by layer: " + ", ".join(
            f"{k} {v:.3f}s" for k, v in info["layer_self_s"].items()))
        if info["mismatched"]:
            print(f"  traced and untraced outputs differ: {info['mismatched'][:3]}")
    print(f"  composition: {json.dumps(comp)}")
    print(f"  environment: {json.dumps(env)}")
    print_failures(by_kind)
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
