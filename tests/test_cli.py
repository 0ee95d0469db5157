import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from sphere_distal.cli import main
from sphere_distal.serialize import orbit_to_svg, parse_matrix
from sphere_distal.errors import SpecParseError


def write_matrix(path, rows):
    path.write_text(json.dumps({"dim": len(rows), "rows": rows}))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


SHEAR = [[1.0, 1.0], [0.0, 1.0]]


def test_classify_shear_exit_1(tmp_path, capsys):
    path = write_matrix(tmp_path / "shear.json", SHEAR)
    code, report, _ = run_cli(capsys, ["classify", path])
    assert code == 1
    result = report["result"]
    assert result["verdict"] == "not-distal"
    assert result["certificate"]["kind"] == "proximal-pair"


def test_classify_rotation_exit_0(tmp_path, capsys):
    code, report, _ = run_cli(capsys, ["--seed", "3", "classify", "--rot", "1.0"])
    assert code == 0
    assert report["result"]["verdict"] == "distal"
    assert report["result"]["seed"] == 3


def test_classify_near_boundary_exit_2(tmp_path, capsys):
    delta = 1e-8
    path = write_matrix(tmp_path / "edge.json", [[1.0 + delta, 0.0], [0.0, 1.0 / (1.0 + delta)]])
    code, report, _ = run_cli(capsys, ["classify", path])
    assert code == 2
    assert report["result"]["verdict"] == "inconclusive"


def test_classify_parse_error_exit_64(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, report, err = run_cli(capsys, ["classify", str(bad)])
    assert code == 64 and report is None and err


def test_classify_nonfinite_exit_64(tmp_path, capsys):
    bad = tmp_path / "inf.json"
    bad.write_text('{"dim": 2, "rows": [[1e999, 0.0], [0.0, 1.0]]}')
    code, _, _ = run_cli(capsys, ["classify", str(bad)])
    assert code == 64


def test_nonfinite_vector_flags_exit_64(tmp_path, capsys):
    path = write_matrix(tmp_path / "shear.json", SHEAR)
    csv_path = tmp_path / "orbit.csv"
    code, report, err = run_cli(capsys, ["orbit", path, "--x", "nan,0", "--csv", str(csv_path)])
    assert code == 64 and report is None and not csv_path.exists()
    assert "Traceback" not in err
    code, report, err = run_cli(capsys, ["fixed-point", path, "--a=inf,0"])
    assert code == 64 and report is None
    assert "Traceback" not in err


def test_import_does_not_load_scipy():
    code = "import sys, sphere_distal, sphere_distal.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "False"


def test_classify_singular_exit_65(tmp_path, capsys):
    path = write_matrix(tmp_path / "sing.json", [[1.0, 1.0], [1.0, 1.0]])
    code, _, _ = run_cli(capsys, ["classify", path])
    assert code == 65


@pytest.mark.parametrize("rows", [[[1.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]])
def test_witness_singular_exit_65_without_warnings(tmp_path, capsys, rows):
    path = write_matrix(tmp_path / "sing.json", rows)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, report, err = run_cli(capsys, ["witness", path])
    assert code == 65 and report is None
    assert "|det| = 0.000e+00 below tolerance" in err
    assert caught == []


def test_degrees_rejected(capsys):
    code, _, err = run_cli(capsys, ["classify", "--rot", "90deg"])
    assert code == 64
    assert "radians" in err


def test_fixed_point_minor_axis(tmp_path, capsys):
    path = write_matrix(tmp_path / "diag.json", [[2.0, 0.0], [0.0, 0.5]])
    code, report, _ = run_cli(capsys, ["fixed-point", path, "--a", "0,0.2"])
    assert code == 0
    result = report["result"]
    assert result["kind"] == "fixed-point"
    assert np.allclose(result["point"], [0.0, 1.0])
    assert result["residual"] < 1e-8


def test_fixed_point_hypothesis_not_met(capsys):
    code, report, err = run_cli(
        capsys, ["fixed-point", "--rot", str(math.pi / 3), "--a", "0.5,0"]
    )
    assert code == 3 and report is None
    assert "sine-exceeds-translation-bound" in err


def test_fixed_point_degenerate_translation(tmp_path, capsys):
    path = write_matrix(tmp_path / "id.json", [[1.0, 0.0], [0.0, 1.0]])
    code, _, _ = run_cli(capsys, ["fixed-point", path, "--a", "1,0"])
    assert code == 66


def test_fixed_point_minus_id_period2(tmp_path, capsys):
    path = write_matrix(tmp_path / "neg.json", [[-1.0, 0.0], [0.0, -1.0]])
    code, report, _ = run_cli(capsys, ["fixed-point", path, "--a", "0.6,0"])
    assert code == 0
    result = report["result"]
    assert result["kind"] == "period-2"
    assert len(result["points"]) == 4


def test_orbit_shear_csv(tmp_path, capsys):
    path = write_matrix(tmp_path / "shear.json", SHEAR)
    csv_path = tmp_path / "orbit.csv"
    code, report, _ = run_cli(
        capsys,
        ["orbit", path, "--x", "0,1", "--steps", "50", "--csv", str(csv_path)],
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "step,x1,x2"
    assert len(lines) == 52
    xs = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b >= a for a, b in zip(xs, xs[1:]))  # monotone approach to the pole
    last = [float(v) for v in lines[-1].split(",")[1:]]
    n = 50
    assert np.allclose(last, [n / math.hypot(n, 1), 1 / math.hypot(n, 1)], atol=1e-12)


def test_orbit_rotation_order8(tmp_path, capsys):
    csv_path = tmp_path / "rot.csv"
    code, _, _ = run_cli(
        capsys,
        ["orbit", "--rot", str(math.pi / 4), "--x", "1,0", "--steps", "8", "--csv", str(csv_path)],
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    first = [float(v) for v in lines[1].split(",")[1:]]
    last = [float(v) for v in lines[-1].split(",")[1:]]
    assert np.allclose(first, last, atol=1e-9)


def test_orbit_zero_steps_single_row(tmp_path, capsys):
    # without --csv the CSV itself is the stdout payload
    path = write_matrix(tmp_path / "id.json", [[1.0, 0.0], [0.0, 1.0]])
    code = main(["orbit", path, "--steps", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert lines == ["step,x1,x2", "0,1.0,0.0"]


def test_orbit_svg_output(tmp_path, capsys):
    path = write_matrix(tmp_path / "rot.json", [[0.0, -1.0], [1.0, 0.0]])
    svg_path = tmp_path / "orbit.svg"
    code, _, _ = run_cli(
        capsys,
        ["orbit", path, "--x", "1,0", "--steps", "4", "--csv", str(tmp_path / "o.csv"), "--svg", str(svg_path)],
    )
    assert code == 0
    svg = svg_path.read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg and "circle" in svg


def test_orbit_svg_3d_projection(tmp_path, capsys):
    rows = [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    path = write_matrix(tmp_path / "rot3.json", rows)
    svg_path = tmp_path / "orbit3.svg"
    code, _, _ = run_cli(
        capsys,
        [
            "orbit", path, "--x", "1,0,0", "--steps", "6",
            "--csv", str(tmp_path / "o3.csv"), "--svg", str(svg_path),
            "--proj-axis", "3",
        ],
    )
    assert code == 0
    assert "<svg" in svg_path.read_text()


def test_semigroup_cli(tmp_path, capsys):
    def matrix_obj(rows):
        return {"dim": 2, "rows": rows}

    c, s = math.cos(1.0), math.sin(1.0)
    c2, s2 = math.cos(math.sqrt(2)), math.sin(math.sqrt(2))
    good = tmp_path / "rotations.json"
    good.write_text(
        json.dumps(
            {
                "generators": [
                    matrix_obj([[c, -s], [s, c]]),
                    matrix_obj([[c2, -s2], [s2, c2]]),
                ]
            }
        )
    )
    code, report, _ = run_cli(capsys, ["semigroup", str(good)])
    assert code == 0
    assert report["result"]["verdict"] == "distal"
    assert report["result"]["certificate"]["kind"] == "budget-exhausted"

    cq, sq = math.cos(math.pi / 4), math.sin(math.pi / 4)
    bad = tmp_path / "mixed.json"
    bad.write_text(
        json.dumps(
            {
                "generators": [
                    matrix_obj([[cq, -sq], [sq, cq]]),
                    matrix_obj(SHEAR),
                ]
            }
        )
    )
    code, report, _ = run_cli(capsys, ["semigroup", str(bad)])
    assert code == 1
    cert = report["result"]["certificate"]
    assert cert["kind"] == "proximal-pair"
    assert cert["word"] == [1]

    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"generators": []}))
    code, _, _ = run_cli(capsys, ["semigroup", str(empty)])
    assert code == 64


def test_witness_cli_2d(tmp_path, capsys):
    path = write_matrix(tmp_path / "diag.json", [[2.0, 0.0], [0.0, 0.5]])
    code, report, _ = run_cli(capsys, ["witness", path])
    assert code == 0
    assert report["result"]["result"]["kind"] == "fixed-point"


def test_witness_cli_3d(tmp_path, capsys):
    c, s = math.cos(1.0), math.sin(1.0)
    rows = [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]
    path = write_matrix(tmp_path / "rot3.json", rows)
    code, report, _ = run_cli(capsys, ["witness", path])
    assert code == 0
    body = report["result"]
    assert 0.0 < np.linalg.norm(body["a"]) < 1.0
    assert body["result"]["kind"] == "proximal-pair"
    assert body["result"]["separation_final"] < 1e-3


def test_witness_uncovered_exit_3(capsys):
    code, _, _ = run_cli(capsys, ["witness", "--rot", "2.5"])
    assert code == 3


def test_inverse_image_cli(tmp_path, capsys):
    path = write_matrix(tmp_path / "id.json", [[1.0, 0.0], [0.0, 1.0]])
    code, report, _ = run_cli(capsys, ["inverse-image", path, "--a", "0.5,0", "--y", "1,0"])
    assert code == 0
    assert np.allclose(report["result"]["point"], [1.0, 0.0])
    assert report["result"]["forward_residual"] < 1e-12


def test_payload_determinism(tmp_path, capsys):
    path = write_matrix(tmp_path / "diag.json", [[2.0, 0.0], [0.0, 0.5]])
    _, report1, _ = run_cli(capsys, ["--seed", "11", "classify", path])
    _, report2, _ = run_cli(capsys, ["--seed", "11", "classify", path])
    assert json.dumps(report1["result"], sort_keys=True) == json.dumps(
        report2["result"], sort_keys=True
    )
    assert report1["config"] == report2["config"]
    assert report1["command"] == report2["command"]


def test_config_file_and_tol_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rng_seed": 5, "oracle": {"samples": 8}}))
    path = write_matrix(tmp_path / "rot.json", [[0.0, -1.0], [1.0, 0.0]])
    code, report, _ = run_cli(
        capsys, ["--config", str(cfg), "--tol-spectral", "1e-6", "classify", path]
    )
    assert code == 0
    assert report["config"]["rng_seed"] == 5
    assert report["config"]["spectral_tol"] == 1e-6
    assert report["config"]["oracle"]["samples"] == 8


def test_env_config_fallback(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rng_seed": 42}))
    monkeypatch.setenv("SPHERE_DISTAL_CONFIG", str(cfg))
    code, report, _ = run_cli(capsys, ["classify", "--rot", "1.0"])
    assert code == 0
    assert report["config"]["rng_seed"] == 42


def test_unknown_flag_exit_64(capsys):
    code, _, _ = run_cli(capsys, ["classify", "--bogus", "x"])
    assert code == 64


def test_svg_golden_snapshot():
    from sphere_distal import AffineSphereMap, orbit

    record = orbit(AffineSphereMap.create([[0.0, -1.0], [1.0, 0.0]]), [1.0, 0.0], 2)
    svg = orbit_to_svg(record)
    expected = (
        '<svg xmlns="http://www.w3.org/2000/svg" width="400" height="400" '
        'viewBox="0 0 400 400">\n'
        '  <circle cx="200.0" cy="200.0" r="180.0" fill="none" stroke="#888" '
        'stroke-width="1"/>\n'
        '  <polyline points="380.000,200.000 200.000,20.000 20.000,200.000" '
        'fill="none" stroke="#0057b7" stroke-width="1.5"/>\n'
        '  <circle cx="380.000" cy="200.000" r="4" fill="#d62728"/>\n'
        "</svg>\n"
    )
    assert svg == expected


def test_parse_matrix_rejects_bad_shapes():
    with pytest.raises(SpecParseError):
        parse_matrix({"dim": 2, "rows": [[1.0, 0.0]]})
    with pytest.raises(SpecParseError):
        parse_matrix({"dim": 1, "rows": [[1.0]]})
    with pytest.raises(SpecParseError):
        parse_matrix({"rows": [[1.0, 0.0], [0.0, 1.0]]})
    with pytest.raises(SpecParseError):
        parse_matrix({"dim": 2, "rows": [[1.0, "x"], [0.0, 1.0]]})


@pytest.mark.parametrize(
    "argv",
    [
        ["orbit", "{m}", "--x", "1,1"],
        ["orbit", "{m}", "--steps", "-1"],
        ["--seed", "-1", "semigroup", "{s}"],
        ["orbit", "{m}", "--csv", "{d}/o.csv", "--svg", "{d}/missing/x.svg"],
        ["--config", "{d}/list_tol.json", "classify", "{m}"],
        ["--config", "{d}/negative_samples.json", "classify", "{m}"],
        ["orbit", "{m}", "--x", "1,0,0"],
        ["orbit", "{m}", "--a", "0.1"],
        ["fixed-point", "{m}", "--a", "0.1,0,0"],
        ["inverse-image", "{m}", "--a", "0.1,0", "--y", "1,0,0"],
        ["semigroup", "{d}/spec_seed.json"],
        ["semigroup", "{d}/spec_budget.json"],
        ["semigroup", "{d}/spec_samples.json"],
        ["semigroup", "{d}/spec_text_seed.json"],
    ],
)
def test_bad_input_exits_64_with_an_error_line(tmp_path, capsys, argv):
    paths = {"m": write_matrix(tmp_path / "shear.json", SHEAR), "d": str(tmp_path)}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"generators": [{"dim": 2, "rows": SHEAR}]}))
    paths["s"] = str(spec)
    (tmp_path / "list_tol.json").write_text(json.dumps({"spectral_tol": [1]}))
    (tmp_path / "negative_samples.json").write_text(json.dumps({"oracle": {"samples": -3}}))
    bad_fields = [("seed", "rng_seed", -1), ("budget", "word_length_budget", 1.7),
                  ("samples", "sample_count", True), ("text_seed", "rng_seed", "3")]
    for name, key, value in bad_fields:
        body = {"generators": [{"dim": 2, "rows": SHEAR}], key: value}
        (tmp_path / f"spec_{name}.json").write_text(json.dumps(body))
    code, report, err = run_cli(capsys, [arg.format(**paths) for arg in argv])
    assert code == 64 and report is None
    assert err.startswith("error:") and "Traceback" not in err


def test_stdout_closed_early_exits_without_traceback(tmp_path):
    path = write_matrix(tmp_path / "shear.json", SHEAR)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sphere_distal.cli", "orbit", path, "--steps", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"step,x1,x2\n"
    proc.stdout.close()  # the CSV is far larger than the pipe buffer
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 70
    assert err.startswith("error:") and "Traceback" not in err and "Exception" not in err


def test_tol_residual_exit_3(tmp_path, capsys):
    path = write_matrix(tmp_path / "diag.json", [[2.0, 0.0], [0.0, 0.5]])
    argv = ["--tol-residual", "1e-20", "fixed-point", path, "--a", "0.3,0.2"]
    code, report, err = run_cli(capsys, argv)
    assert code == 3 and report is None
    assert "residual-above-tolerance" in err


def test_parser_keeps_no_state_between_calls(tmp_path, capsys):
    c, s = math.cos(1.0), math.sin(1.0)
    rot3 = write_matrix(tmp_path / "rot3.json", [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    diag = write_matrix(tmp_path / "diag.json", [[2.0, 0.0], [0.0, 0.5]])
    argv_a = ["witness", rot3]
    argv_b = ["--seed", "7", "--tol-residual", "1e-6", "--tol-spectral", "1e-5",
              "fixed-point", diag, "--a", "0.3,0.2"]

    def report_without_time(argv):
        code = main(argv)
        out = capsys.readouterr().out
        report = json.loads(out)
        del report["wall_time_s"]
        return code, report

    code_a, first = report_without_time(argv_a)
    assert code_a == 0
    assert main(["fixed-point", diag, "--bogus"]) == 64
    capsys.readouterr()
    code_b, second = report_without_time(argv_b)
    assert code_b == 0
    assert second["config"]["rng_seed"] == 7 and second["config"]["residual_tol"] == 1e-6
    code_again, again = report_without_time(argv_a)
    assert code_again == 0
    assert json.dumps(again["result"], sort_keys=True) == json.dumps(first["result"], sort_keys=True)
    assert again == first
    assert first["result"]["result"]["recurrence_times"]
