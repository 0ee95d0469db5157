"""Command-line surface: classify, fixed-point, orbit, semigroup, witness, inverse-image.

Exit codes
    0   success (classify/semigroup: Distal)
    1   classify/semigroup: NotDistal
    2   classify/semigroup: Inconclusive
    3   no covered construction (failed hypothesis, a residual above
        --tol-residual, uncovered class, wrong spectrum, non-isometry,
        unsupported dimension)
    64  unparsable input (bad JSON, flags, schema, config values or spec
        budgets, a non-finite angle, a vector flag of the wrong length, a
        point off the sphere, an output path that cannot be written)
    65  singular matrix, or a normalization to unit determinant that overflows
    66  invalid translation (zero, degenerate, non-injective regime, or a norm that overflows)
    70  unexpected internal failure, or stdout closed before all output
        was written

Angles are radians everywhere; values carrying a degree marker are
rejected outright.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import re
import stat
import sys
import time

import numpy as np

from . import __version__
from .config import load_config
from .distality import (
    Verdict,
    classify_projective_distality,
    semigroup_distality_test,
)
from .errors import (
    DegenerateMap, DimensionMismatch, DimensionUnsupported, HypothesisNotMet, InvalidTranslation,
    NoPositiveRealEigenvalue, NotOrthogonal, OutsideCoveredClasses, RealSpectrum, SingularMatrix,
    SpecParseError, SphereDistalError, ZeroTranslation,
)
from .fixed_points import (
    FixedPointResult,
    choose_nondistal_witness,
    find_fixed_point,
    isometry_even_sphere_witness,
)
from .linalg import rotation
from .serialize import (
    certificate_to_json,
    dump_json,
    fixed_point_to_json,
    load_matrix,
    load_semigroup_spec,
    matrix_to_json,
    orbit_to_csv,
    orbit_to_svg,
    periodic_points_to_json,
    run_report,
    verdict_to_json,
)
from .sphere import (
    AffineSphereMap,
    affine_inverse_image,
    apply_affine,
    orbit,
)

EXIT_DISTAL = 0
EXIT_NOT_DISTAL = 1
EXIT_INCONCLUSIVE = 2
EXIT_UNCOVERED = 3
EXIT_PARSE = 64
EXIT_SINGULAR = 65
EXIT_TRANSLATION = 66
EXIT_INTERNAL = 70

_VERDICT_EXIT = {
    Verdict.DISTAL: EXIT_DISTAL,
    Verdict.NOT_DISTAL: EXIT_NOT_DISTAL,
    Verdict.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}

# library error class (or classes) -> exit code and stderr prefix; the first
# entry the error is an instance of wins, so the base class comes last
_ERROR_EXIT = {
    SpecParseError: (EXIT_PARSE, ""),
    SingularMatrix: (EXIT_SINGULAR, "singular matrix: "),
    (InvalidTranslation, ZeroTranslation, DegenerateMap): (EXIT_TRANSLATION, "invalid translation: "),
    (HypothesisNotMet, OutsideCoveredClasses, NoPositiveRealEigenvalue, RealSpectrum, NotOrthogonal,
     DimensionUnsupported, DimensionMismatch): (EXIT_UNCOVERED, "not covered: "),
    SphereDistalError: (EXIT_INTERNAL, ""),
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only -1 and -.5 as negative numbers and takes any
        # other word that starts with "-" for an option, so --rot -1e-3 and
        # --a -0.5,0 would lose their values: a "-" or "-." followed by a
        # digit is a value.  Subparsers are built from this class too.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    # argparse exits with status 2 by default, which collides with the
    # Inconclusive verdict; route usage problems to the parse exit code.
    def error(self, message):
        raise SpecParseError(message)


def _parse_angle(text: str) -> float:
    lowered = text.strip().lower()
    if "deg" in lowered or "°" in lowered:
        raise SpecParseError("angles are accepted in radians only")
    try:
        angle = float(text)
        if not math.isfinite(angle):
            raise ValueError("the angle must be finite")
    except ValueError as exc:
        raise SpecParseError(f"bad angle {text!r}: {exc}") from exc
    return angle


def _parse_vector(text: str, dim: int) -> np.ndarray:
    """A comma-separated vector of ``dim`` finite entries."""
    try:
        v = np.array([float(part) for part in text.split(",")], dtype=float)
        if not np.all(np.isfinite(v)):
            raise ValueError("entries must be finite")
        if v.shape[0] != dim:
            raise ValueError(f"expected {dim} entries for a {dim}x{dim} matrix, got {v.shape[0]}")
    except ValueError as exc:
        raise SpecParseError(f"bad vector {text!r}: {exc}") from exc
    return v


def _resolve_matrix(args) -> np.ndarray:
    if args.rot is not None:
        if args.matrix is not None:
            raise SpecParseError("give either a matrix file or --rot, not both")
        return rotation(_parse_angle(args.rot))
    if args.matrix is None:
        raise SpecParseError("a matrix file (or --rot) is required")
    return load_matrix(args.matrix)


# global tolerance flags and the Config field each one overrides
_TOL_FLAGS = (
    ("--tol-unit-norm", "unit_norm_tol"),
    ("--tol-spectral", "spectral_tol"),
    ("--tol-rank", "rank_tol"),
    ("--tol-residual", "residual_tol"),
    ("--tol-bisection", "bisection_tol"),
    ("--tol-singular", "singular_tol"),
    ("--tol-classify", "classify_tol"),
)


def _apply_overrides(config, args):
    overrides = {
        name: getattr(args, name) for _, name in _TOL_FLAGS if getattr(args, name) is not None
    }
    if args.seed is not None:
        overrides["rng_seed"] = args.seed
    if not overrides:
        return config
    try:
        return config.replace(**overrides)
    except ValueError as exc:
        raise SpecParseError(str(exc)) from exc


def _solution_to_json(result) -> dict:
    if isinstance(result, FixedPointResult):
        return fixed_point_to_json(result)
    return periodic_points_to_json(result)


def _keep_contents(path, flags):
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _open_outputs(*paths) -> list:
    """A file open for writing at offset 0 for each path (None for None), or
    none at all.  No file is truncated here: the caller writes, then truncates
    a regular file at the end of what it wrote.  When a path cannot be
    opened, the files this call created are removed again and existing
    ones keep their contents."""
    created = [p for p in paths if p is not None and not os.path.exists(p)]
    files = []
    try:
        for path in paths:
            files.append(None if path is None else open(path, "w", encoding="utf-8", opener=_keep_contents))
    except OSError as exc:
        for fh in filter(None, files):
            fh.close()
            if fh.name in created:
                os.remove(fh.name)
        raise SpecParseError(f"cannot write {path}: {exc}") from exc
    return files


def _verdict_result(verdict) -> tuple[int, dict]:
    return _VERDICT_EXIT[verdict.verdict], verdict_to_json(verdict)


def _classify(args, config):
    return _verdict_result(classify_projective_distality(_resolve_matrix(args), config))


def _semigroup(args, config):
    return _verdict_result(semigroup_distality_test(load_semigroup_spec(args.spec), config))


def _fixed_point(args, config):
    T = _resolve_matrix(args)
    a = _parse_vector(args.a, T.shape[0])
    return EXIT_DISTAL, _solution_to_json(find_fixed_point(T, a, config))


def _orbit(args, config):
    T = _resolve_matrix(args)
    d = T.shape[0]
    a = _parse_vector(args.a, d) if args.a else None
    x = _parse_vector(args.x, d) if args.x is not None else np.eye(d)[0]
    m = AffineSphereMap.create(T, a, config)
    try:
        record = orbit(m, x, args.steps, config)
    except ValueError as exc:  # negative --steps or a start point off the sphere
        raise SpecParseError(str(exc)) from exc
    # rendered before any output is opened: a rejected SVG leaves no file
    svg = orbit_to_svg(record, proj_axis=args.proj_axis) if args.svg else None
    csv_fh, svg_fh = _open_outputs(args.csv, args.svg or None)
    with contextlib.suppress(OSError, ValueError):  # a stdout with no descriptor, an io.StringIO
        if csv_fh is not None and os.path.samestat(os.fstat(csv_fh.fileno()), os.fstat(sys.stdout.fileno())):
            csv_fh.close()  # the CSV goes through sys.stdout, so the report follows it
            csv_fh = None
    with csv_fh or contextlib.nullcontext(), svg_fh or contextlib.nullcontext():
        orbit_to_csv(record, csv_fh or sys.stdout)
        if svg_fh is not None:
            svg_fh.write(svg)
        for fh in filter(None, (csv_fh, svg_fh)):
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # a device or a pipe has no old tail
                fh.truncate()  # drop what is left of a longer old file
    if args.csv is None:
        return EXIT_DISTAL, None  # stdout already holds the CSV payload
    return EXIT_DISTAL, {
        "map": m.describe(),
        "steps": int(args.steps),
        "first": [float(v) for v in record.points[0]],
        "last": [float(v) for v in record.points[-1]],
        "csv": args.csv,
        "svg": args.svg,
    }


def _witness(args, config):
    T = _resolve_matrix(args)
    if T.shape[0] == 2:
        a, result = choose_nondistal_witness(T, config)
        body = _solution_to_json(result)
    else:
        a, pair = isometry_even_sphere_witness(T, config)
        body = certificate_to_json(pair)
    return EXIT_DISTAL, {"a": [float(v) for v in a], "result": body}


def _inverse_image(args, config):
    T = _resolve_matrix(args)
    d = T.shape[0]
    a = _parse_vector(args.a, d)
    y = _parse_vector(args.y, d)
    m = AffineSphereMap.create(T, a, config)
    try:
        x = affine_inverse_image(m, y, config)
    except ValueError as exc:  # a target point off the sphere
        raise SpecParseError(str(exc)) from exc
    forward = apply_affine(m, x, config)
    return EXIT_DISTAL, {
        "matrix": matrix_to_json(T),
        "point": [float(v) for v in x],
        "forward_residual": float(np.linalg.norm(forward - y)),
    }


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process and shared by every
    ``main`` call: parse_args leaves it unchanged, and callers must too."""
    parser = _Parser(prog="sphere-distal", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="JSON config file (or $SPHERE_DISTAL_CONFIG)")
    parser.add_argument("--seed", type=int, help="random seed override")
    for flag, dest in _TOL_FLAGS:
        parser.add_argument(flag, dest=dest, type=float, default=None)

    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, matrix=True):
        # run(args, config) returns (exit code, result payload or None)
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        if matrix:
            p.add_argument("matrix", nargs="?", help="matrix JSON file")
            p.add_argument("--rot", help="build a 2x2 rotation by this angle (radians)")
        return p

    command("classify", _classify, "distality verdict for one matrix")

    p = command("fixed-point", _fixed_point, "fixed/period-2 point of the affine map")
    p.add_argument("--a", required=True, help="translation, comma separated")

    p = command("orbit", _orbit, "record an orbit as CSV (and optionally SVG)")
    p.add_argument("--a", default=None, help="translation, comma separated (default 0)")
    p.add_argument("--x", default=None, help="start point (default first basis vector)")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--csv", default=None, help="CSV path (default stdout)")
    p.add_argument("--svg", default=None, help="SVG path")
    p.add_argument("--proj-axis", type=int, default=3, help="dropped axis for d=3 SVG")

    p = command("semigroup", _semigroup, "distality test for generated semigroup", matrix=False)
    p.add_argument("spec", help="semigroup spec JSON file")

    command("witness", _witness, "choose a non-distality witness translation")

    p = command("inverse-image", _inverse_image, "preimage of a point under the affine map")
    p.add_argument("--a", required=True, help="translation, comma separated")
    p.add_argument("--y", required=True, help="target point, comma separated")

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    started = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        config = _apply_overrides(load_config(args.config), args)
        code, payload = args.run(args, config)
        if payload is not None:
            report = run_report(argv, config, payload, time.perf_counter() - started, __version__)
            print(dump_json(report))
        return code
    except SphereDistalError as exc:
        code, prefix = next(v for k, v in _ERROR_EXIT.items() if isinstance(exc, k))
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code
    except BrokenPipeError:
        # the reader closed stdout (say `| head`); point stdout at devnull so
        # the interpreter's final flush does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed before the output was written", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # the exit code must never read as a verdict
        print(f"error: internal failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
