"""Stable JSON/CSV/SVG encodings for every structured input and output.

Matrix files look like {"dim": d, "rows": [[...], ...]}; semigroup spec
files add generator lists and budgets.  All emitted JSON is sorted and
indented so identical inputs and seeds produce byte-identical payloads:
``dump_json`` writes the bytes of ``json.dumps(obj, sort_keys=True,
indent=2)`` without the stdlib's pure-Python encoder, and a run report's
config block is encoded once per ``Config`` and spliced in.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .config import Config, json_count, known_fields, read_json
from .distality import (
    BudgetExhausted,
    DistalityVerdict,
    ProximalPair,
    SemigroupSpec,
    SpectralProof,
    UnboundedWord,
)
from .errors import SpecParseError
from .fixed_points import FixedPointResult, PeriodicPoints2
from .sphere import OrbitRecord


def parse_matrix(data) -> np.ndarray:
    """Parse {"dim": d, "rows": [...]}, rejecting non-finite entries and other keys."""
    if not isinstance(data, dict):
        raise SpecParseError("matrix JSON must be an object")
    known_fields(data, ("dim", "rows"), "matrix")
    if "dim" not in data or "rows" not in data:
        raise SpecParseError("matrix JSON needs integer 'dim' and 'rows'")
    dim, rows = json_count("dim", data["dim"], "matrix"), data["rows"]
    if dim < 2:
        raise SpecParseError(f"matrix field dim must be at least 2, got {dim}")
    if not isinstance(rows, list) or len(rows) != dim:
        raise SpecParseError(f"expected {dim} rows")
    out = np.empty((dim, dim))
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise SpecParseError(f"row {i} must hold {dim} numbers")
        for j, value in enumerate(row):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SpecParseError(f"entry ({i},{j}) is not a number")
            if not math.isfinite(value):
                raise SpecParseError(f"entry ({i},{j}) is not finite")
            out[i, j] = float(value)
    return out


def load_matrix(path: str) -> np.ndarray:
    return parse_matrix(read_json(path, "matrix"))


def matrix_to_json(T: np.ndarray) -> dict:
    return {"dim": int(T.shape[0]), "rows": [[float(x) for x in row] for row in T]}


def parse_semigroup_spec(data) -> SemigroupSpec:
    if not isinstance(data, dict):
        raise SpecParseError("semigroup spec must be a JSON object")
    known_fields(data, ("generators", "word_length_budget", "sample_count", "rng_seed"), "spec")
    raw = data.get("generators")
    if not isinstance(raw, list) or not raw:
        raise SpecParseError("semigroup spec needs a non-empty 'generators' list")
    generators = tuple(parse_matrix(item) for item in raw)
    dims = {g.shape[0] for g in generators}
    if len(dims) != 1:
        raise SpecParseError("generators must share one dimension")

    def opt_int(key):
        value = data.get(key)
        return None if value is None else json_count(key, value, "spec")

    return SemigroupSpec(
        generators=generators,
        word_length_budget=opt_int("word_length_budget"),
        sample_count=opt_int("sample_count"),
        rng_seed=opt_int("rng_seed"),
    )


def load_semigroup_spec(path: str) -> SemigroupSpec:
    return parse_semigroup_spec(read_json(path, "spec"))


def _vec(v) -> list:
    return [float(x) for x in np.asarray(v).ravel()]


def certificate_to_json(cert) -> dict:
    if isinstance(cert, SpectralProof):
        return {
            "kind": "spectral-proof",
            "eigenvalues": [[lam.real, lam.imag] for lam in cert.eigenvalues],
            "moduli": [abs(lam) for lam in cert.eigenvalues],
            "semisimple": cert.semisimple,
        }
    if isinstance(cert, ProximalPair):
        out = {
            "kind": "proximal-pair",
            "x": _vec(cert.x),
            "y": _vec(cert.y),
            "steps": int(cert.steps),
            "separation_initial": float(cert.separation_initial),
            "separation_final": float(cert.separation_final),
        }
        if cert.word is not None:
            out["word"] = [int(i) for i in cert.word]
        return out
    if isinstance(cert, UnboundedWord):
        return {
            "kind": "unbounded-word",
            "word": [int(i) for i in cert.word],
            "norm": float(cert.norm),
            "bound": float(cert.bound),
        }
    if isinstance(cert, BudgetExhausted):
        return {"kind": "budget-exhausted", "parameters": cert.parameters}
    raise TypeError(f"unknown certificate type {type(cert)!r}")


def verdict_to_json(v: DistalityVerdict) -> dict:
    return {
        "verdict": v.verdict.value,
        "certificate": certificate_to_json(v.certificate),
        "budget": v.budget,
        "seed": v.seed,
    }


def fixed_point_to_json(r: FixedPointResult) -> dict:
    return {
        "kind": "fixed-point",
        "point": _vec(r.point),
        "gamma": float(r.gamma),
        "residual": float(r.residual),
        "branch": r.branch,
    }


def periodic_points_to_json(p: PeriodicPoints2) -> dict:
    return {
        "kind": "period-2",
        "points": [_vec(row) for row in p.points],
        "partner": [int(i) for i in p.partner],
        "residuals": _vec(p.residuals),
    }


def orbit_to_csv(record: OrbitRecord, fh) -> None:
    """Write the orbit as CSV with a mandatory header: step, x1..xd.

    No field (an integer step, a float ``repr``) needs CSV quoting, so rows
    are joined by hand into the bytes ``csv.writer`` writes.  Each row is
    its own write, so a reader that closes a piped stdout early still
    fails a later one.
    """
    d = record.points.shape[1]
    fh.write(",".join(["step"] + [f"x{i + 1}" for i in range(d)]) + "\n")
    fh.writelines(
        f"{step},{','.join(map(repr, row))}\n" for step, row in enumerate(record.points.tolist())
    )


def orbit_to_svg(record: OrbitRecord, proj_axis: int = 3, size: int = 400) -> str:
    """Render an orbit as a standalone SVG: unit circle plus the orbit polyline.

    d = 3 orbits are projected orthographically by dropping the
    1-based ``proj_axis`` coordinate.
    """
    pts = record.points
    d = pts.shape[1]
    if d == 2:
        xy = pts
    elif d == 3:
        if proj_axis not in (1, 2, 3):
            raise SpecParseError("projection axis must be 1, 2 or 3")
        keep = [i for i in range(3) if i != proj_axis - 1]
        xy = pts[:, keep]
    else:
        raise SpecParseError("SVG output supports d in {2, 3}")
    cx = cy = size / 2.0
    radius = size * 0.45

    def sx(x):
        return f"{cx + radius * x:.3f}"

    def sy(y):
        return f"{cy - radius * y:.3f}"

    poly = " ".join(f"{sx(x)},{sy(y)}" for x, y in xy)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'  <circle cx="{cx}" cy="{cy}" r="{radius}" fill="none" stroke="#888" '
        'stroke-width="1"/>',
        f'  <polyline points="{poly}" fill="none" stroke="#0057b7" stroke-width="1.5"/>',
        f'  <circle cx="{sx(xy[0, 0])}" cy="{sy(xy[0, 1])}" r="4" fill="#d62728"/>',
        "</svg>",
    ]
    return "\n".join(lines) + "\n"


def dump_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte.

    The stdlib writes indented JSON through its pure-Python encoder; this
    one appends to a single list and knows only what a report holds: dicts
    with str keys (written sorted), lists, tuples, str, int, float, bool
    and None.  Float and int subclasses (NumPy ``float64``) are written by
    ``float.__repr__`` and ``int.__repr__``, as ``json`` writes them.
    Anything else raises the stdlib's ``TypeError``, and so does a key that
    is not a str.  A report's config block is spliced in from
    ``Config.json_text``.
    """
    parts: list[str] = []
    _encode(obj, "\n", parts.append)
    return "".join(parts)


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _encode(value, newline: str, append) -> None:
    """Append ``value`` as indented JSON; ``newline`` is a line break and its indentation."""
    if isinstance(value, str):
        append(encode_basestring_ascii(value))
    elif value is None:
        append("null")
    elif value is True:
        append("true")
    elif value is False:
        append("false")
    elif isinstance(value, int):
        append(int.__repr__(value))
    elif isinstance(value, float):
        append(_float_text(value))
    elif type(value) is _ConfigBlock:
        append(value.config.json_text.replace("\n", newline))
    elif isinstance(value, dict):
        if not value:
            append("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            append(lead + encode_basestring_ascii(key) + ": ")
            _encode(item, inner, append)
            lead = "," + inner
        append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            append("[]")
            return
        inner = newline + "  "
        lead = "[" + inner
        for item in value:
            append(lead)
            _encode(item, inner, append)
            lead = "," + inner
        append(newline + "]")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


class _ConfigBlock(dict):
    """A report's ``config.to_json()``, which ``dump_json`` writes as ``config.json_text``.

    The text belongs to the frozen Config, so it cannot go stale; editing
    this dict after ``run_report`` would not show in ``dump_json``.
    """

    __slots__ = ("config",)

    def __init__(self, config: Config):
        super().__init__(config.to_json())
        self.config = config


def run_report(command: list[str], config: Config, result, wall_time: float, version: str) -> dict:
    return {
        "command": command,
        "config": _ConfigBlock(config),
        "result": result,
        "wall_time_s": wall_time,
        "version": version,
    }
