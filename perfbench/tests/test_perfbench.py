"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""
import json
import random
import subprocess
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


def test_spec_matches_the_metric_tables():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in run.PER_LAYER]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    declared = {m["name"] for m in SPEC["per_layer"] + SPEC["end_to_end"]}
    for row in layer_map["map"]:
        assert set(row["per_layer"]) <= declared
        for effect in row["effects"]:
            assert effect["metric"] in declared and effect["workload"] in workloads.WORKLOADS


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc, lines = _bench("--workload", workload, "--seed", "5", "--seconds", "0.5",
                         "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
        assert any(line.strip().startswith(f"{m['name']} = ") and line.endswith(m["unit"])
                   for line in lines)
    assert any(line.strip().startswith("failed_ratio = ") for line in lines)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_smoke_traced_run_prints_every_per_layer_metric():
    proc, lines = _bench("--workload", "certify", "--seed", "5", "--seconds", "0.5",
                         "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["metrics"]["layer.spectra.self_s"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "frames",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode not in (0, None)
    assert proc.stdout.strip() == ""


def _small_certify():
    return [workloads.membership_request("0,2:6", 10**5, 400),
            workloads.membership_request("0,2:4", -3000, 400),
            workloads.bizero_request("0,2:4", 4),
            workloads.spectrum_find_request((0, 1, 3)),
            workloads.spectrum_find_request((0, 2, 3, 5)),
            workloads.tile_analyze_request((0, 1, 4, 5), 8)]


def test_planted_wrong_program_answer_counts_as_failed(monkeypatch):
    import spectraforge.spectra as spectra
    rows, _, _ = run.drive([_small_certify()], float("inf"))
    assert all(row.reason is None for row in rows)
    monkeypatch.setattr(spectra.ZeroSetDescriptor, "locate", lambda self, x: None)
    rows, _, _ = run.drive([_small_certify()], float("inf"))
    failed = [row.kind for row in rows if row.reason is not None]
    assert failed == ["zeroset_membership", "zeroset_membership", "is_bizero"]
    by_kind, failed = run.failures(rows)
    assert failed == 3 and by_kind["is_bizero"]["failed"] == by_kind["is_bizero"]["attempted"]


def test_planted_wrong_oracle_answer_counts_as_failed(monkeypatch):
    monkeypatch.setattr(oracles, "has_spectrum", lambda digits: False)
    rows, _, _ = run.drive([_small_certify()], float("inf"))
    failed = [(row.label, row.reason) for row in rows if row.reason is not None]
    assert failed == [("spectrum-find --atoms 0,2,3,5", "oracle")]
    assert run.failures(rows)[1] == 1


THIRD = Fraction(1, 3)


def test_infinity_on_a_zero_floor_is_the_known_defect():
    # two frequencies, three atoms: the floor is exactly 0
    req = workloads.frame_bounds_request((0, 1, 2), (THIRD,) * 3, [Fraction(0), Fraction(1, 3)])
    rows, _, _ = run.drive([[req]], float("inf"))
    assert rows[0].reason == workloads.NONFINITE_ZERO_FLOOR
    by_kind, failed = run.failures(rows)
    assert failed == 0 and by_kind["frame_bounds"]["known_defects"] == 1
    assert by_kind["frame_bounds"]["known_defect"]


def _plant_zero_floor(monkeypatch):
    import spectraforge.cli as cli
    from spectraforge.frames import FrameBounds
    real = cli.frame_bounds
    monkeypatch.setattr(cli, "frame_bounds",
                        lambda system: FrameBounds(lower=0.0, upper=real(system).upper))


def test_planted_zero_floor_on_a_full_rank_system_is_not_exempt(monkeypatch):
    freqs = [Fraction(0), Fraction(1, 3), Fraction(2, 3)]
    req = workloads.frame_bounds_request((0, 1, 2), (THIRD,) * 3, freqs)
    rows, _, _ = run.drive([[req]], float("inf"))
    assert rows[0].reason is None
    _plant_zero_floor(monkeypatch)
    rows, _, _ = run.drive([[req]], float("inf"))
    assert rows[0].reason == "oracle"
    assert run.failures(rows)[1] == 1


def test_planted_zero_floor_fails_the_run(monkeypatch, capsys):
    _plant_zero_floor(monkeypatch)
    code = run.main(["--workload", "frames", "--seed", "3", "--seconds", "0.3", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and not result["correct"] and result["failed"] > 0


def _sample(workload, n):
    rounds_fn, warmup_fn = workloads.WORKLOADS[workload]
    first = next(islice(rounds_fn(random.Random(7)), 1, None))
    cheap = sorted(first, key=lambda r: r.atoms * (r.matrix_dim + 1))[:n]
    return warmup_fn() + cheap


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_are_identical(workload):
    import spectraforge.measures as measures
    original = measures.mask_eval
    requests = _sample(workload, 4)
    rows, plain, _ = run.drive([requests], float("inf"), keep_results=True)
    tracer = Tracer()
    tracer.install()
    try:
        assert measures.mask_eval is not original
        traced_rows, traced, _ = run.drive([requests], float("inf"), tracer, keep_results=True)
    finally:
        tracer.uninstall()
    assert measures.mask_eval is original
    assert traced == plain
    assert [r.reason for r in traced_rows] == [r.reason for r in rows]
    library_calls = {k for k in tracer.calls if not k.startswith("request.")}
    assert library_calls


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin(0, "probe")
        workloads.jp_scan_request("0,1:4", 2, 16, 2).call()
        tracer.end()
    finally:
        tracer.uninstall()
    total = sum(tracer.self_s.values())
    request_span = [s for s in tracer.spans if s[1] == "request.probe"][0]
    assert total == pytest.approx(request_span[3] - request_span[2], rel=1e-9)
    assert tracer.calls["rational.unit_exp"] > 0
    assert tracer.counters["measures.mask_eval", "atom_terms"] == \
        4 * tracer.calls["measures.mask_eval"]
