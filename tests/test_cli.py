import csv
import json
from fractions import Fraction as F

import pytest

from spectraforge import AtomicMeasure, measure_from_dict, measure_to_dict
from spectraforge.cli import run


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_tile_analyze_spectral(capsys):
    code, report = run_json(capsys, ["tile-analyze", "--set", "0,1,2,3", "--n", "4"])
    assert code == 0
    assert report["schema"] == "spectra-forge/1"
    assert report["command"] == "tile-analyze"
    assert report["verdict"] == "spectral"
    assert report["witnesses"]["complement"] == [0]
    assert report["witnesses"]["spectrum"] == ["0", "1/4", "1/2", "3/4"]


def test_tile_analyze_no_tiling(capsys):
    code, report = run_json(capsys, ["tile-analyze", "--set", "0,3", "--n", "4"])
    assert code == 0  # a definite negative verdict still exits 0
    assert report["verdict"] == "no_tiling"
    assert report["witnesses"]["complement"] is None


def test_spectrum_find_triple(capsys):
    code, report = run_json(capsys, ["spectrum-find", "--atoms", "0,1,2"])
    assert code == 0
    assert report["verdict"] == "spectral"
    assert report["witnesses"]["spectrum"] == ["0", "1/3", "2/3"]


def test_spectrum_find_nonuniform_weights(capsys):
    code, report = run_json(
        capsys, ["spectrum-find", "--atoms", "0,1", "--weights", "1/3,2/3"]
    )
    assert code == 0
    assert report["verdict"] == "not_spectral"


def test_spectrum_find_negative_triple(capsys):
    code, report = run_json(capsys, ["spectrum-find", "--atoms", "0,1,3"])
    assert code == 0
    assert report["verdict"] == "not_spectral"


def test_spectrum_find_inconclusive_exits_2(capsys):
    code, report = run_json(capsys, ["spectrum-find", "--atoms", "0,1,2,3,7"])
    assert code == 2
    assert report["verdict"] == "inconclusive"


def test_spectrum_find_selfsimilar_tower(capsys):
    code, report = run_json(
        capsys, ["spectrum-find", "--selfsimilar", "0,2:4", "--depth", "2"]
    )
    assert code == 0
    assert report["verdict"] == "spectral"
    assert report["witnesses"]["spectrum_section"] == ["0", "1", "4", "5"]


def test_spectrum_find_selfsimilar_without_tiling(capsys):
    code, report = run_json(
        capsys, ["spectrum-find", "--selfsimilar", "0,3:4", "--depth", "2"]
    )
    assert code == 2
    assert report["verdict"] == "inconclusive"


def test_frame_bounds_inline(capsys):
    code, report = run_json(
        capsys,
        ["frame-bounds", "--atoms", "0,1", "--weights", "1/3,2/3", "--freqs", "0,1/2"],
    )
    assert code == 0
    assert report["verdict"] == "riesz_evidence"
    assert report["witnesses"]["lower"] == pytest.approx(2 / 3, abs=1e-12)
    assert report["witnesses"]["upper"] == pytest.approx(4 / 3, abs=1e-12)


def test_frame_bounds_oracle_brackets(capsys):
    code, report = run_json(
        capsys,
        ["frame-bounds", "--atoms", "0,1,2", "--freqs", "0,1/3,2/3", "--oracle",
         "--seed", "3"],
    )
    assert code == 0
    assert report["witnesses"]["oracle"]["bracket_ok"] is True


def test_frame_bounds_from_system_file(capsys, tmp_path):
    payload = {
        "measure": measure_to_dict(AtomicMeasure.uniform([0, 1])),
        "frequencies": ["0", "1/2"],
    }
    path = tmp_path / "system.json"
    path.write_text(json.dumps(payload))
    code, report = run_json(capsys, ["frame-bounds", "--system", str(path)])
    assert code == 0
    assert report["verdict"] == "riesz_evidence"
    assert report["input"] == {"system": str(path)}


def test_jp_scan_clean_scan_is_inconclusive(capsys):
    code, report = run_json(
        capsys,
        ["jp-scan", "--selfsimilar", "0,2:4", "--depth", "2", "--grid-size", "32",
         "--approx-level", "2"],
    )
    assert code == 2
    assert report["verdict"] == "inconclusive"
    assert report["witnesses"]["consistent_with_orthonormal"] is True
    assert report["witnesses"]["max_abs_deviation"] < 1e-12


def test_jp_scan_csv_output(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, _ = run_json(
        capsys,
        ["jp-scan", "--selfsimilar", "0,2:4", "--depth", "1", "--grid-size", "8",
         "--csv", str(target)],
    )
    assert code == 2
    with open(target) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "Q", "tail_error"]
    assert len(rows) == 9
    assert float(rows[1][2]) >= 0.0


def test_convolve_build_weighted_example(capsys):
    code, report = run_json(
        capsys,
        ["convolve-build", "--eta", "0,1:1/3,2/3", "--q", "1",
         "--nu", "selfsimilar:0,1:4", "--depth", "3"],
    )
    assert code == 0
    assert report["verdict"] == "not_spectral"
    ev = report["witnesses"]["riesz_evidence"]
    assert ev["discrete_part"] == ["0", "1/2"]
    floors = [row["lower"] for row in ev["gram_sections"]]
    assert len(floors) == 3
    assert min(floors) > 0.01 * max(r["upper"] for r in ev["gram_sections"])


def test_convolve_build_uniform_is_spectral(capsys):
    code, report = run_json(
        capsys,
        ["convolve-build", "--eta", "0,1", "--q", "1", "--nu", "lebesgue",
         "--depth", "1"],
    )
    assert code == 0
    assert report["verdict"] == "spectral"
    assert "orthonormal_section" in report["witnesses"]


def test_density_scan_csv(capsys, tmp_path):
    target = tmp_path / "dens.csv"
    code, report = run_json(
        capsys,
        ["density-scan", "--freqs", ",".join(str(k) for k in range(0, 65, 2)),
         "--window", "0:64", "--h", "8,16", "--csv", str(target)],
    )
    assert code == 2  # diagnostics never settle a verdict
    dens = {row["h"]: row["density"] for row in report["witnesses"]["densities"]}
    assert dens == {8.0: 0.5, 16.0: 0.5}
    with open(target) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["h", "density"]


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code = run(["spectrum-find", "--atoms", "0,1,2", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(target.read_text())
    assert report["verdict"] == "spectral"


def test_usage_errors_exit_1(capsys):
    assert run(["spectrum-find"]) == 1  # neither --atoms nor --selfsimilar
    assert run(["spectrum-find", "--atoms", "0,1/2"]) == 1  # non-integer atoms
    assert run(["frame-bounds"]) == 1
    assert run(["no-such-command"]) == 1
    assert run(["convolve-build", "--eta", "0,1", "--nu", "nonsense"]) == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_malformed_values_exit_1(capsys):
    assert run(["tile-analyze", "--set", "0,0", "--n", "4"]) == 1  # duplicate digits
    assert run(["convolve-build", "--eta", "0,1:1/3,1/3", "--nu", "lebesgue"]) == 1


def test_input_echo_allows_rerun(capsys):
    # the echoed input strings are enough to reproduce the run exactly
    code, first = run_json(
        capsys, ["spectrum-find", "--atoms", "0,2,4", "--weights", "1/3,1/3,1/3"]
    )
    argv = ["spectrum-find", "--atoms", first["input"]["atoms"],
            "--weights", first["input"]["weights"]]
    code2, second = run_json(capsys, argv)
    assert (code, first["verdict"], first["witnesses"]) == (
        code2, second["verdict"], second["witnesses"]
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["jp-scan", "--selfsimilar", "0,2:4", "--grid-size", "0"],
        ["jp-scan", "--selfsimilar", "0,2:4", "--grid-size", "-3"],
        ["spectrum-find", "--selfsimilar", "0,2:4", "--depth", "0"],
    ],
)
def test_nonpositive_grid_or_depth_exit_1(capsys, argv):
    # invalid input, not an inconclusive verdict; no report (and no -Infinity)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "positive integer" in captured.err


@pytest.mark.parametrize("window,message", [("5", "LO:HI"), ("5:1", "LO < HI")])
def test_density_scan_bad_window_exit_1(capsys, window, message):
    assert run(["density-scan", "--freqs", "0,1", f"--window={window}", "--h", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


_HALVES = measure_to_dict(AtomicMeasure.uniform([0, 1]))


@pytest.mark.parametrize(
    "payload,message",
    [
        ({"measure": _HALVES, "frequencies": [0, 0.5]}, "exact rational"),
        ({"measure": [1, 2], "frequencies": ["0", "1/2"]}, "'measure'"),
        ([_HALVES, ["0", "1/2"]], "JSON object"),
        ({"measure": _HALVES, "frequencies": "0,1/2"}, "'frequencies'"),
    ],
)
def test_frame_bounds_malformed_system_exit_1(capsys, tmp_path, payload, message):
    # bad input, never a traceback; a string is not iterated character by character
    path = tmp_path / "system.json"
    path.write_text(json.dumps(payload))
    assert run(["frame-bounds", "--system", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize(
    "measure,field",
    [
        ({"type": "atomic", "atoms": "01", "weights": ["1/2", "1/2"]}, "'atoms'"),
        ({"type": "atomic", "atoms": ["0", "1"], "weights": "11"}, "'weights'"),
        ({"type": "selfsimilar", "digits": "02", "scale": 4}, "'digits'"),
        ({"type": "convolution", "dilation": 2, "continuous": {"type": "lebesgue"},
          "discrete": {"type": "atomic", "atoms": "01", "weights": ["1/2", "1/2"]}}, "'atoms'"),
    ],
)
def test_measure_fields_must_be_json_lists(capsys, tmp_path, measure, field):
    # a string of atoms or digits is not read character by character
    with pytest.raises(ValueError, match=field):
        measure_from_dict(measure)
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"measure": measure, "frequencies": ["0", "1/2"]}))
    assert run(["frame-bounds", "--system", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and field in captured.err
