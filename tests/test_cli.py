import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from helpers import OVERFLOWING_TAIL_SET
from sphere_distal import cli, errors
from sphere_distal.cli import main
from sphere_distal.linalg import rotation
from sphere_distal.config import Config
from sphere_distal.serialize import dump_json, orbit_to_svg, parse_matrix, run_report
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


@pytest.mark.parametrize("angle", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("command", [["classify"], ["witness"], ["fixed-point", "--a", "0.1,0"]])
def test_nonfinite_angle_exits_64(capsys, command, angle):
    code, report, err = run_cli(capsys, [*command, f"--rot={angle}"])
    assert code == 64 and report is None
    assert err.startswith("error:") and "finite" in err


# the documented exit code and stderr prefix of every library error class
DOCUMENTED_ERROR_EXIT = {
    errors.SpecParseError: (64, "error: "),
    errors.SingularMatrix: (65, "error: singular matrix: "),
    errors.InvalidTranslation: (66, "error: invalid translation: "),
    errors.ZeroTranslation: (66, "error: invalid translation: "),
    errors.DegenerateMap: (66, "error: invalid translation: "),
    errors.HypothesisNotMet: (3, "error: not covered: "),
    errors.OutsideCoveredClasses: (3, "error: not covered: "),
    errors.NoPositiveRealEigenvalue: (3, "error: not covered: "),
    errors.RealSpectrum: (3, "error: not covered: "),
    errors.NotOrthogonal: (3, "error: not covered: "),
    errors.DimensionUnsupported: (3, "error: not covered: "),
    errors.DimensionMismatch: (3, "error: not covered: "),
    errors.SpectrumCollision: (70, "error: "),
    errors.SphereDistalError: (70, "error: "),
}


def test_every_library_error_class_has_a_documented_exit():
    classes = set(errors.SphereDistalError.__subclasses__()) | {errors.SphereDistalError}
    assert classes == set(DOCUMENTED_ERROR_EXIT)


@pytest.mark.parametrize("cls", list(DOCUMENTED_ERROR_EXIT), ids=lambda cls: cls.__name__)
def test_library_errors_map_to_their_documented_exit(capsys, monkeypatch, cls):
    def fail(*args, **kwargs):
        raise cls("boom")

    monkeypatch.setattr(cli, "classify_projective_distality", fail)
    code, report, err = run_cli(capsys, ["classify", "--rot", "1.0"])
    expected_code, prefix = DOCUMENTED_ERROR_EXIT[cls]
    assert code == expected_code and report is None
    assert err == f"{prefix}boom\n"


# the input files of the refusal tests, by the name their argv uses
REFUSAL_FILES = {
    "identity": {"dim": 2, "rows": [[1.0, 0.0], [0.0, 1.0]]},
    "config-list": [1, 2],
    "config-oracle-3": {"oracle": 3},
    "spec-list": [{"dim": 2, "rows": [[0.0, -1.0], [1.0, 0.0]]}],
    "spec-mixed": {
        "generators": [
            {"dim": 2, "rows": [[0.0, -1.0], [1.0, 0.0]]},
            {"dim": 3, "rows": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
        ]
    },
    "negative-diagonal": {"dim": 2, "rows": [[-2.0, 0.0], [0.0, -0.5]]},
    "identity-4": {"dim": 4, "rows": np.eye(4).tolist()},
    "spec-4x4": {"generators": [{"dim": 4, "rows": np.eye(4).tolist()}]},
    # each product of the closed-form determinant overflows, with no NumPy warning
    "big-det-2": {"dim": 2, "rows": (1e200 * np.eye(2)).tolist()},
    "big-det-3": {"dim": 3, "rows": (1e200 * np.eye(3)).tolist()},
    "spec-big-det-2": {"generators": [{"dim": 2, "rows": (1e200 * np.eye(2)).tolist()}]},
    "spec-big-det-3": {"generators": [{"dim": 3, "rows": (1e200 * np.eye(3)).tolist()}]},
    # 1e6 [[1, 1], [-1, -1]] up to one ulp: nilpotent within the discriminant's rounding radius
    "near-nilpotent": {"dim": 2, "rows": [[1e6, 1e6], [-999999.9999999999, -1e6]]},
}


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["classify", "identity", "--rot", "1.0"], 64, "error: give either a matrix file or --rot"),
        (["classify"], 64, "error: a matrix file (or --rot) is required"),
        (["--config", "config-list", "classify", "--rot", "1.0"], 64, "error: config must be a JSON object"),
        (["--config", "config-oracle-3", "classify", "--rot", "1.0"], 64, "error: config 'oracle' must be"),
        (["--config", "missing", "classify", "--rot", "1.0"], 64, "error: cannot read config file"),
        (["semigroup", "spec-list"], 64, "error: semigroup spec must be a JSON object"),
        (["semigroup", "spec-mixed"], 64, "error: generators must share one dimension"),
        (["fixed-point", "negative-diagonal", "--a=0.3,0.2"], 3, "error: not covered: both eigenvalues negative"),
        (["classify", "identity-4"], 3, "error: not covered: classifier supports d in {2, 3}"),
        (["semigroup", "spec-4x4"], 3, "error: not covered: classifier supports d in {2, 3}"),
        (["classify", "big-det-2"], 65, "error: singular matrix: determinant overflowed"),
        (["classify", "big-det-3"], 65, "error: singular matrix: determinant overflowed"),
        (["semigroup", "spec-big-det-2"], 65, "error: singular matrix: determinant overflowed"),
        (["semigroup", "spec-big-det-3"], 65, "error: singular matrix: determinant overflowed"),
        (["fixed-point", "big-det-2", "--a=0.5,0"], 65, "error: singular matrix: determinant overflowed"),
        (["witness", "big-det-2"], 65, "error: singular matrix: determinant overflowed"),
        (["witness", "near-nilpotent"], 3, "error: not covered: real spectra with top eigenvalue 0"),
        (["witness", "--rot", "1.5707963267948966"], 3,
         "error: not covered: rotation-like map with |sin(theta)| = 1 leaves no translation band"),
    ],
    ids=["file-and-rot", "no-matrix", "config-list", "config-oracle-3", "config-missing",
         "spec-list", "spec-mixed-dims", "fixed-point-negative-diagonal", "classify-4x4", "semigroup-4x4",
         "classify-big-det-2x2", "classify-big-det-3x3", "semigroup-big-det-2x2", "semigroup-big-det-3x3",
         "fixed-point-big-det", "witness-big-det", "witness-top-eigenvalue-0", "witness-quarter-turn"],
)
def test_refusals_exit_with_their_code_and_one_error_line(tmp_path, capsys, argv, code, message):
    for name, body in REFUSAL_FILES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(body))
    argv = [str(tmp_path / f"{a}.json") if a in REFUSAL_FILES or a == "missing" else a for a in argv]
    got, report, err = run_cli(capsys, argv)
    assert got == code and report is None
    assert err.startswith(message) and err.count("\n") == 1 and err.endswith("\n")


# |det| = 1e-11 passes the singularity gate, but T / |det|^(1/2) overflows
OVERFLOWING_NORMALIZATION = [[1e305, 0.0], [0.0, 1e-316]]


@pytest.mark.parametrize(
    "command", [["classify"], ["semigroup"], ["fixed-point", "--a=0.5,0"], ["witness"]], ids=lambda c: c[0]
)
def test_a_normalization_that_overflows_exits_65(tmp_path, capfd, command):
    if command[0] == "semigroup":
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"generators": [{"dim": 2, "rows": OVERFLOWING_NORMALIZATION}]}))
    else:
        path = write_matrix(tmp_path / "overflow.json", OVERFLOWING_NORMALIZATION)
    # capfd, not capsys: LAPACK would print its complaints to file descriptor 2
    code, report, err = run_cli(capfd, command[:1] + [str(path)] + command[1:])
    assert code == 65 and report is None
    assert err.startswith("error: singular matrix: ") and err.count("\n") == 1 and err.endswith("\n")


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


@pytest.mark.parametrize("rows, flags", [
    ([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], ["--proj-axis", "7"]),
    (np.eye(4).tolist(), []),
])
def test_orbit_rejected_svg_writes_no_file(tmp_path, capsys, rows, flags):
    path = write_matrix(tmp_path / "m.json", rows)
    csv_path, svg_path = tmp_path / "o.csv", tmp_path / "o.svg"
    code, report, err = run_cli(
        capsys, ["orbit", path, "--steps", "3", "--csv", str(csv_path), "--svg", str(svg_path), *flags])
    assert code == 64 and report is None and err.startswith("error:")
    assert not csv_path.exists() and not svg_path.exists()


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


@pytest.mark.parametrize("delta", [2.0, 3.0])
@pytest.mark.parametrize("command", ["semigroup", "witness"])
def test_oracle_delta_of_the_sphere_diameter_or_more_exits_64(tmp_path, capsys, command, delta):
    c, s = math.cos(1.0), math.sin(1.0)
    rows = [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]
    if command == "semigroup":
        target = tmp_path / "spec.json"
        target.write_text(json.dumps({"generators": [{"dim": 3, "rows": rows}]}))
    else:
        target = write_matrix(tmp_path / "rot3.json", rows)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"oracle": {"delta": delta}}))
    code, report, err = run_cli(capsys, ["--config", str(cfg), command, str(target)])
    assert code == 64 and report is None
    assert err.startswith("error:") and "diameter" in err


def test_witness_uncovered_exit_3(capsys):
    code, _, _ = run_cli(capsys, ["witness", "--rot", "2.5"])
    assert code == 3


def test_witness_stretched_quarter_turn_exit_0(tmp_path, capsys):
    # tr = 0 and det = 1 exactly: a complex spectrum, and ||T|| = 1e13 > 5 takes a large translation
    path = write_matrix(tmp_path / "stretched.json", [[0.0, -1e13], [1e-13, 0.0]])
    code, report, _ = run_cli(capsys, ["witness", path])
    assert code == 0
    assert report["result"]["result"]["branch"] == "resolvent-bisection-large-translation"


def test_witness_cli_5d(tmp_path, capsys):
    Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((5, 5)))
    path = write_matrix(tmp_path / "q5.json", Q.tolist())
    code, report, _ = run_cli(capsys, ["witness", path])
    assert code == 0
    body = report["result"]
    assert len(body["a"]) == 5 and np.linalg.norm(body["a"]) == pytest.approx(0.5)
    assert body["result"]["kind"] == "proximal-pair"
    assert body["result"]["separation_final"] < report["config"]["recurrence_eps"]


def test_a_config_that_sets_the_retired_recurrence_scan_exits_64(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"recurrence_scan": 100000}))
    code, report, err = run_cli(capsys, ["--config", str(cfg), "witness", "--rot", "1.0"])
    assert code == 64 and report is None
    assert err == "error: unknown config field: recurrence_scan\n"


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


def test_parse_matrix_names_a_short_row():
    with pytest.raises(SpecParseError, match=r"^row 1 must hold 2 numbers$"):
        parse_matrix({"dim": 2, "rows": [[1, 0], [0]]})


@pytest.mark.parametrize(
    "command, body, message",
    [
        ("semigroup", {"generators": [{"dim": 2, "rows": SHEAR}], "sample_cont": 0,
                       "word_lenght_budget": 3}, "unknown spec field: sample_cont"),
        ("semigroup", {"generators": [{"dim": 2, "rows": SHEAR, "dims": 2}]},
         "unknown matrix field: dims"),
        ("classify", {"dim": 2, "rows": SHEAR, "row": []}, "unknown matrix field: row"),
    ],
    ids=["spec", "generator", "matrix"],
)
def test_a_file_with_an_unknown_field_exits_64(tmp_path, capsys, command, body, message):
    # a misspelled budget must not be read as an absent one
    path = tmp_path / "in.json"
    path.write_text(json.dumps(body))
    code, report, err = run_cli(capsys, [command, str(path)])
    assert code == 64 and report is None
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("dim", [2.9, "2", True, None, [2], 1, -2])
def test_parse_matrix_rejects_a_dim_that_is_not_a_count_of_at_least_2(dim):
    with pytest.raises(SpecParseError, match=r"\bdim\b"):
        parse_matrix({"dim": dim, "rows": [[1.0, 0.0], [0.0, 1.0]]})


def test_parse_matrix_accepts_an_integral_float_dim():
    assert np.array_equal(parse_matrix({"dim": 2.0, "rows": [[1.0, 0.0], [0.0, 1.0]]}), np.eye(2))


@pytest.mark.parametrize("dim", [2.9, "2", True])
def test_classify_rejects_a_bad_dim_with_exit_64(tmp_path, capsys, dim):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dim": dim, "rows": [[0.0, -1.0], [1.0, 0.0]]}))
    code, report, err = run_cli(capsys, ["classify", str(path)])
    assert code == 64 and report is None
    assert err.startswith("error:") and re.search(r"\bdim\b", err)


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


@pytest.mark.parametrize("outputs", [("o.csv", "missing/x.svg"), ("missing/o.csv", "o.svg")])
def test_orbit_unwritable_output_creates_no_file(tmp_path, capsys, outputs):
    path = write_matrix(tmp_path / "shear.json", SHEAR)
    csv_path, svg_path = (tmp_path / name for name in outputs)
    argv = ["orbit", path, "--steps", "3", "--csv", str(csv_path), "--svg", str(svg_path)]
    code, report, err = run_cli(capsys, argv)
    assert code == 64 and report is None and err.startswith("error:")
    assert not csv_path.exists() and not svg_path.exists()


@pytest.mark.parametrize("outputs", [("o.csv", "missing/x.svg"), ("missing/o.csv", "o.svg")])
def test_orbit_unwritable_output_keeps_existing_files(tmp_path, capsys, outputs):
    path = write_matrix(tmp_path / "shear.json", SHEAR)
    csv_path, svg_path = (tmp_path / name for name in outputs)
    existing = csv_path if csv_path.parent == tmp_path else svg_path
    existing.write_text("old contents\n")
    argv = ["orbit", path, "--steps", "3", "--csv", str(csv_path), "--svg", str(svg_path)]
    code, report, _ = run_cli(capsys, argv)
    assert code == 64 and report is None
    assert existing.read_text() == "old contents\n"


@pytest.mark.parametrize("flag", ["--csv", "--svg"])
def test_orbit_output_to_the_null_device_exits_0(tmp_path, capsys, flag):
    argv = ["orbit", "--rot", "0.3", "--steps", "1"]
    assert main(argv + [flag, str(tmp_path / "out")]) == 0
    want = capsys.readouterr().out
    assert main(argv + [flag, os.devnull]) == 0  # a device has no old tail to truncate
    got = capsys.readouterr()
    assert got.err == ""
    if flag == "--csv":
        assert json.loads(got.out)["result"] == dict(json.loads(want)["result"], csv=os.devnull)
    else:
        assert got.out == want  # the CSV, on stdout


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_orbit_csv_to_stdout_through_a_pipe_exits_0(tmp_path, capsys):
    csv_path = tmp_path / "orbit.csv"
    assert main(["orbit", "--rot", "0.3", "--steps", "1", "--csv", str(csv_path)]) == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    argv = ["orbit", "--rot", "0.3", "--steps", "1", "--csv", "/dev/stdout"]
    proc = subprocess.run(
        [sys.executable, "-m", "sphere_distal.cli"] + argv, capture_output=True, env=env, timeout=60
    )
    assert proc.returncode == 0 and proc.stderr == b""
    csv = csv_path.read_bytes()
    assert proc.stdout.startswith(csv)  # a pipe cannot seek, so nothing truncates it
    assert json.loads(proc.stdout[len(csv):])["result"]["csv"] == "/dev/stdout"


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_orbit_csv_to_stdout_redirected_to_a_file_keeps_the_csv(tmp_path, capsys):
    csv_path = tmp_path / "orbit.csv"
    assert main(["orbit", "--rot", "0.3", "--steps", "1", "--csv", str(csv_path)]) == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    argv = ["orbit", "--rot", "0.3", "--steps", "1", "--csv", "/dev/stdout"]
    out = tmp_path / "out.txt"
    with open(out, "wb") as fh:
        proc = subprocess.run([sys.executable, "-m", "sphere_distal.cli"] + argv,
                              stdout=fh, stderr=subprocess.PIPE, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stderr == b""
    csv, written = csv_path.read_bytes(), out.read_bytes()
    assert written.startswith(csv)  # the CSV, then the report after it
    assert json.loads(written[len(csv):])["result"]["csv"] == "/dev/stdout"


@pytest.mark.parametrize("a", ["1e306,0", "1e153,0"])
@pytest.mark.parametrize(
    "command", [["fixed-point"], ["inverse-image", "--y=1,0"], ["orbit", "--steps", "2"]], ids=lambda c: c[0]
)
def test_a_translation_whose_norm_overflows_exits_66(tmp_path, capsys, command, a):
    # ||a|| (1e306) or ||T^-1 a|| (1e156) squares past the largest float
    path = write_matrix(tmp_path / "small.json", [[1e-3, 0.0], [0.0, 1e-3]])
    argv = command[:1] + [path, f"--a={a}"] + command[1:]
    for action in ("error", "always"):  # with -W error::RuntimeWarning and without
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action, RuntimeWarning)
            code, report, err = run_cli(capsys, argv)
        assert code == 66 and report is None and caught == []
        assert err.startswith("error: invalid translation: ") and err.count("\n") == 1


def test_orbit_of_a_translation_whose_norm_underflows(tmp_path, capsys):
    # ||a||^2 = 1e-340 underflows, but a is not zero: the map keeps its translation
    argv = ["orbit", "--rot", "0.3", "--a=1e-170,0", "--csv", str(tmp_path / "o.csv")]
    code, report, _ = run_cli(capsys, argv)
    assert code == 0 and report["result"]["map"]["regime"] == "homeomorphism"
    assert report["result"]["map"]["translation"] == [1e-170, 0.0]


def test_fixed_point_of_a_translation_whose_norm_underflows_exits_66(capsys):
    code, report, err = run_cli(capsys, ["fixed-point", "--rot", "0.3", "--a=1e-170,0"])
    assert code == 66 and report is None
    assert err.startswith("error: invalid translation: ") and err.count("\n") == 1
    assert "underflows" in err


def test_fixed_point_on_a_complex_pair_of_huge_entries_exits_3(tmp_path, capsys):
    # a finite canonical basis, so the sine hypothesis is tested and fails
    path = write_matrix(tmp_path / "huge.json", [[0.9553, -2.955e299], [2.955e-301, 0.9553]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, report, err = run_cli(capsys, ["fixed-point", path, "--a=0.5,0"])
    assert code == 3 and report is None
    assert err.startswith("error: not covered: sine-exceeds-translation-bound: ")


def test_orbit_replaces_a_longer_existing_output(tmp_path, capsys):
    path = write_matrix(tmp_path / "shear.json", SHEAR)
    fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
    reused.write_text("x" * 100_000)
    for csv_path in (fresh, reused):
        assert main(["orbit", path, "--steps", "3", "--csv", str(csv_path)]) == 0
    assert reused.read_text() == fresh.read_text() != ""


@pytest.mark.parametrize(
    "rows, a, expected",
    [
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "0,0,0", 66),
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "2,0,0", 66),
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]], "0.1,0,0", 65),
    ],
)
def test_fixed_point_3x3_reports_the_translation_or_determinant_first(
        tmp_path, capsys, rows, a, expected):
    path = write_matrix(tmp_path / "m3.json", rows)
    code, report, _ = run_cli(capsys, ["fixed-point", path, "--a", a])
    assert code == expected and report is None


def test_semigroup_zero_budget_with_four_generators(tmp_path, capsys):
    spec = tmp_path / "four.json"
    gens = [{"dim": 2, "rows": rotation(theta).tolist()} for theta in (0.3, 0.7, 1.1, 1.9)]
    spec.write_text(json.dumps({"generators": gens, "word_length_budget": 0}))
    code, report, _ = run_cli(capsys, ["semigroup", str(spec)])
    assert code == 0
    assert report["result"]["verdict"] == "distal"
    assert report["result"]["certificate"]["parameters"]["words_checked"] == 0


def test_semigroup_random_word_whose_product_overflows_exits_1(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    gens = [{"dim": 2, "rows": rows} for rows in OVERFLOWING_TAIL_SET]
    spec.write_text(json.dumps({"generators": gens, "word_length_budget": 50000, "sample_count": 0}))
    code, report, err = run_cli(capsys, ["semigroup", str(spec)])
    assert code == 1 and err == ""
    assert report["result"]["certificate"]["kind"] == "unbounded-word"


def test_semigroup_oracle_delta_near_two_exits_0(tmp_path, capsys):
    # the oracle's pair sampler falls back to antipodes when draws this far apart run out
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"oracle": {"delta": 1.99999999, "samples": 4}}))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"generators": [{"dim": 2, "rows": rotation(math.pi / 2).tolist()}]}))
    code, report, _ = run_cli(capsys, ["--config", str(cfg), "semigroup", str(spec)])
    assert code == 0
    assert report["result"]["verdict"] == "distal"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["classify", "--rot", "-1e-3"], "--rot"),
        (["fixed-point", "--rot", "1", "--a", "-0.5,0"], "--a"),
        (["orbit", "--rot", "0.5", "--x", "-1,0", "--steps", "3"], "--x"),
        (["inverse-image", "--rot", "0.5", "--a", "0.1,0", "--y", "-1,0"], "--y"),
    ],
)
def test_a_negative_value_after_a_space_parses_as_with_equals(capsys, argv, flag):
    i = argv.index(flag)
    joined = argv[:i] + [f"{flag}={argv[i + 1]}"] + argv[i + 2 :]
    runs = []
    for args in (argv, joined):
        code = main(args)
        captured = capsys.readouterr()
        # orbit without --csv prints the CSV itself; the others print a report
        out = json.loads(captured.out)["result"] if captured.out.startswith("{") else captured.out
        runs.append((code, json.dumps(out), captured.err))
    assert runs[0] == runs[1]
    assert "expected one argument" not in runs[0][2]


# the hard cases of each type json.dumps writes; random payloads draw from them
ENCODER_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.225073858507201e-308, 1e308,
    0.1 + 0.2, 1.2345678901234567, -9.876543210987654e-123, 1.0, 2.0**53 + 2,
    np.float64(0.30000000000000004), np.float64(-0.0), np.float64(math.nan), np.float64(-math.inf),
]
ENCODER_INTS = [0, -1, 7, 2**63, 2**64 + 1, -(2**70) - 3, 10**40, True, False]
ENCODER_STRINGS = [
    "", "plain", 'a "quoted" word', "back\\slash", "tab\tnew\nline\r", "\x00\x01\x1f\x7f",
    "caf\u00e9", "\u4e2d\u6587", "\U0001f600", "\ud800", "lone \udfff low", "/slash/",
]


def _random_payload(rng, depth=0):
    kind = rng.integers(9 if depth < 4 else 5)
    if kind == 0:
        return ENCODER_FLOATS[rng.integers(len(ENCODER_FLOATS))]
    if kind == 1:
        return float(rng.normal() * 10.0 ** rng.integers(-300, 300))
    if kind == 2:
        return ENCODER_INTS[rng.integers(len(ENCODER_INTS))]
    if kind == 3:
        return ENCODER_STRINGS[rng.integers(len(ENCODER_STRINGS))]
    if kind == 4:
        return None
    size = rng.integers(4)
    items = [_random_payload(rng, depth + 1) for _ in range(size)]
    if kind == 5:
        return items
    if kind == 6:
        return tuple(items)
    keys = rng.choice(len(ENCODER_STRINGS), size=size, replace=False)
    return {ENCODER_STRINGS[k]: item for k, item in zip(keys, items)}


def test_dump_json_writes_the_bytes_of_json_dumps_on_seeded_payloads():
    rng = np.random.default_rng(20)
    payloads = [{}, [], (), {"a": {}, "b": [[], [{}]], "c": ({},)}, [[[]]]]
    payloads += ENCODER_FLOATS + ENCODER_INTS + ENCODER_STRINGS + [None]
    payloads += [_random_payload(rng) for _ in range(2000)]
    for obj in payloads:
        assert dump_json(obj) == json.dumps(obj, sort_keys=True, indent=2), repr(obj)


@pytest.mark.parametrize(
    "obj", [np.int64(3), {1, 2}, np.zeros(2), np.True_, [1.0, np.int64(2)], {"k": {"n": set()}}]
)
def test_dump_json_raises_type_error_where_json_dumps_does(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        dump_json(obj)


def test_dump_json_refuses_a_key_that_is_not_a_str():
    # json.dumps would write the key as "1"; no report holds such a key
    with pytest.raises(TypeError, match="keys must be str, not int"):
        dump_json({1: 2})


def _raw_report_argvs(tmp_path) -> list:
    """One run of each subcommand, each printing a run report."""
    rot = write_matrix(tmp_path / "rot.json", [[0.0, -1.0], [1.0, 0.0]])
    rot3 = write_matrix(tmp_path / "rot3.json", [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"generators": [{"dim": 2, "rows": SHEAR}]}))
    return [
        ["classify", write_matrix(tmp_path / "shear.json", SHEAR)],
        ["fixed-point", "--rot", "0.3", "--a", "0.5,0"],
        ["orbit", rot, "--steps", "3", "--csv", str(tmp_path / "orbit.csv")],
        ["semigroup", str(spec)],
        ["witness", rot3],
        ["inverse-image", rot, "--a", "0.5,0", "--y", "1,0"],
    ]


def test_every_report_prints_the_bytes_of_json_dumps_whatever_the_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"residual_tol": 1e-7, "max_word_length": 6, "oracle": {"eps": 2e-4}}))
    setups = [[], ["--config", str(cfg)], ["--tol-spectral", "1e-6", "--tol-residual", "2e-8"],
              ["--seed", "9"]]
    argvs = _raw_report_argvs(tmp_path)
    seen = set()
    for _ in range(2):  # interleaved, so a config block is never left from the run before
        for argv in argvs:
            for setup in setups:
                main(setup + argv)
                out = capsys.readouterr().out
                report = json.loads(out)
                assert out == json.dumps(report, sort_keys=True, indent=2) + "\n", setup + argv
                seen.add(json.dumps(report["config"], sort_keys=True))
    assert len(seen) == len(setups)


def test_configs_that_compare_equal_but_encode_differently_keep_their_own_block():
    one, one_float = Config(unit_norm_tol=1), Config(unit_norm_tol=1.0)
    assert one == one_float and hash(one) == hash(one_float)
    for config in (one, one_float, one, one_float):
        report = run_report(["classify"], config, {"verdict": "distal"}, 0.25, "0")
        assert dump_json(report) == json.dumps(report, sort_keys=True, indent=2)
        assert f'"unit_norm_tol": {config.unit_norm_tol!r}\n' in dump_json(report)
