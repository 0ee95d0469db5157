"""Fuzz the CLI in-process: every argv maps to a documented exit code, never a traceback."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphere_distal.cli import main

EXIT_CODES = {0, 1, 2, 3, 64, 65, 66, 70}

_c, _s = math.cos(1.0), math.sin(1.0)
MATRICES = {
    "rot2": [[_c, -_s], [_s, _c]],
    "shear": [[1.0, 1.0], [0.0, 1.0]],
    "diag": [[2.0, 0.0], [0.0, 0.5]],
    "minus_id": [[-1.0, 0.0], [0.0, -1.0]],
    "singular": [[1.0, 1.0], [1.0, 1.0]],
    "rot3": [[_c, -_s, 0.0], [_s, _c, 0.0], [0.0, 0.0, 1.0]],
    "flip3": [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]],
}
SPECS = {
    "spec_rot": {"generators": [{"dim": 2, "rows": MATRICES["rot2"]}],
                 "word_length_budget": 3, "sample_count": 1},
    "spec_shear": {"generators": [{"dim": 2, "rows": MATRICES["shear"]}]},
    "spec_dims": {"generators": [{"dim": 2, "rows": MATRICES["rot2"]}, {"dim": 3, "rows": MATRICES["rot3"]}]},
    "spec_seed": {"generators": [{"dim": 2, "rows": MATRICES["rot2"]}], "rng_seed": -1},
    "config_ok": {"rng_seed": 3, "oracle": {"samples": 4, "iterations": 200}},
    "config_eps": {"oracle": {"eps": 0.5, "delta": 0.1}},
    "config_unknown": {"not_a_field": 1},
}
# malformed files, as raw bytes
RAW = {
    "not_json": b"{not json",
    "list": b"[1, 2]",
    "bad_dim": b'{"dim": 1, "rows": [[1.0]]}',
    "short_rows": b'{"dim": 2, "rows": [[1.0, 0.0]]}',
    "text_entry": b'{"dim": 2, "rows": [[1.0, "x"], [0.0, 1.0]]}',
    "inf_entry": b'{"dim": 2, "rows": [[1e999, 0.0], [0.0, 1.0]]}',
    "nan_entry": b'{"dim": 2, "rows": [[NaN, 0.0], [0.0, 1.0]]}',
    "latin1": b'{"dim": 2, "rows": "\xff"}',
}
# argv paths are written relative to the work directory as "{d}/name"
MATRIX_FILES = {d: [f"{{d}}/{name}.json" for name, rows in MATRICES.items() if len(rows) == d] for d in (2, 3)}
OTHER_FILES = [f"{{d}}/{name}.json" for name in [*SPECS, *RAW, "missing"]]
REQUIRED = {"fixed-point": ("--a",), "inverse-image": ("--a", "--y")}
OPTIONAL = {"orbit": ("--a", "--x", "--steps", "--csv", "--svg", "--proj-axis")}
STRAY = ("--a", "--x", "--steps", "--csv", "--bogus", "-h")


def mostly(good, bad):
    """``good`` about four times in five, else ``bad``, so most calls get past
    parsing (hypothesis favours the ends of a range, so ``bad`` takes the middle)."""
    return st.integers(0, 4).flatmap(lambda k: bad if k == 2 else good)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    for name, rows in MATRICES.items():
        (d / f"{name}.json").write_text(json.dumps({"dim": len(rows), "rows": rows}))
    for name, body in SPECS.items():
        (d / f"{name}.json").write_text(json.dumps(body))
    for name, raw in RAW.items():
        (d / f"{name}.json").write_bytes(raw)
    return d


numbers = st.one_of(st.floats(-3.0, 3.0), st.integers(-3, 3), st.floats())
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)


def matrix_objects(d):
    good = st.lists(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d), min_size=d, max_size=d)
    bad = st.lists(st.lists(numbers, min_size=d - 1, max_size=d + 1), min_size=d - 1, max_size=d + 1)
    dim = mostly(st.just(d), st.sampled_from([1, d + 1, str(d)]))
    return st.fixed_dictionaries({"dim": dim, "rows": mostly(good, bad)})


def vectors(d):
    good = st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)
    bad = st.lists(numbers, min_size=1, max_size=4)
    text = st.text(max_size=8)
    return mostly(mostly(good, bad).map(lambda v: ",".join(repr(float(x)) for x in v)), text)


def semigroup_specs(d):
    fields = {
        "word_length_budget": mostly(st.integers(0, 3), st.floats(-2.0, 3.0) | st.booleans()),
        "sample_count": mostly(st.integers(0, 2), st.integers(-2, -1) | st.text(max_size=2)),
        "rng_seed": mostly(st.integers(0, 2**70), st.floats() | st.none()),
    }
    gens = st.lists(matrix_objects(d), min_size=1, max_size=2)
    return st.fixed_dictionaries({"generators": mostly(gens, st.lists(matrix_objects(d), max_size=0))},
                                 optional=fields)


def flag_value(flag: str, d: int):
    if flag in ("--a", "--x", "--y"):
        return vectors(d)
    return {
        "--steps": mostly(st.integers(0, 20).map(str), st.integers(-3, -1).map(str) | st.text(max_size=3)),
        "--csv": mostly(st.just("{d}/out.csv"), st.just("{d}/missing/out.csv")),
        "--svg": mostly(st.just("{d}/out.svg"), st.just("{d}/missing/out.svg")),
        "--proj-axis": st.integers(-1, 4).map(str),
        "--seed": mostly(st.integers(0, 2**70).map(str), st.integers(-3, -1).map(str) | st.text(max_size=3)),
        "--tol-residual": mostly(st.floats(1e-12, 1e-3).map(repr), numbers.map(repr) | st.text(max_size=3)),
        "--tol-spectral": mostly(st.floats(1e-9, 1e-5).map(repr), numbers.map(repr)),
        "--config": mostly(st.just("{d}/config_ok.json"), st.sampled_from(OTHER_FILES)),
        "--rot": mostly(st.floats(-7.0, 7.0).map(repr), st.sampled_from(["90deg", "1°", "x", "nan"])),
    }[flag]


def with_values(draw, flags, d: int) -> list:
    # "--a=-0.5,0.1": a value that starts with "-" must be joined to its flag
    return [flag if flag in ("--bogus", "-h") else f"{flag}={draw(flag_value(flag, d))}" for flag in flags]


@st.composite
def invocations(draw):
    """An argv template and the JSON written to {d}/generated.json before the call."""
    d = draw(st.sampled_from([2, 3]))
    globals_ = ["--seed", "--tol-residual", "--tol-spectral", "--config"]
    argv = with_values(draw, draw(st.lists(st.sampled_from(globals_), max_size=2, unique=True)), d)
    commands = ["classify", "fixed-point", "orbit", "semigroup", "witness", "inverse-image"]
    command = draw(mostly(st.sampled_from(commands), st.just("bogus")))
    argv.append(command)
    if command == "semigroup":
        generated = draw(mostly(semigroup_specs(d), json_values))
        argv.append(draw(mostly(st.just("{d}/generated.json"), st.sampled_from(OTHER_FILES))))
    else:
        generated = draw(mostly(matrix_objects(d), json_values))
        if d == 2 and draw(st.integers(0, 5)) == 0:
            argv += with_values(draw, ["--rot"], d)
        else:
            files = st.sampled_from(MATRIX_FILES[d] + ["{d}/generated.json"])
            argv.append(draw(mostly(files, st.sampled_from(OTHER_FILES))))
    argv += with_values(draw, REQUIRED.get(command, ()), d)
    optional = OPTIONAL.get(command, ()) + (STRAY if draw(st.integers(0, 9)) == 0 else ())
    if optional:
        argv += with_values(draw, draw(st.lists(st.sampled_from(optional), max_size=3, unique=True)), d)
    return argv, generated


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # only -h leaves through argparse, with status 0
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(case=invocations())
def test_cli_exit_codes_are_documented_and_never_a_traceback(workdir, case):
    template, generated = case
    (workdir / "generated.json").write_text(json.dumps(generated))
    argv = [arg.replace("{d}", str(workdir)) for arg in template]
    code, err = run_in_process(argv)
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code not in (0, 1, 2):
        assert err.startswith("error:"), (argv, code, err)
