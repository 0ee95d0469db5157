"""Run configuration: every tolerance and budget lives here, never at call sites."""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import os
from dataclasses import dataclass, field

from .errors import SpecParseError

ENV_CONFIG_PATH = "SPHERE_DISTAL_CONFIG"


def _check_fields(record) -> None:
    """Tolerances must be positive and finite, counts non-negative integers."""
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if f.type == "float" and not (
            isinstance(value, numbers.Real) and not isinstance(value, bool) and 0 < value < math.inf
        ):
            raise ValueError(f"tolerance {f.name} must be positive and finite")
        if f.type == "int":
            check_count(f.name, value)


def check_count(name: str, value) -> None:
    """Counts and seeds are non-negative integers; booleans and fractions are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


@dataclass(frozen=True)
class OracleBudget:
    """Budget for the proximal-pair orbit oracle."""

    samples: int = 64
    iterations: int = 2000
    eps: float = 1e-4
    delta: float = 0.3

    def __post_init__(self):
        _check_fields(self)
        if not self.delta < 2.0:
            raise ValueError("oracle delta must be below 2, the diameter of the sphere")
        if not self.eps < self.delta:
            raise ValueError("oracle eps must be smaller than delta")


@dataclass(frozen=True)
class Config:
    """Tolerances and budgets for the whole library.

    Tolerance defaults: unit-norm 1e-9, spectral 1e-7, rank 1e-8,
    residual 1e-8, bisection interval 1e-12.  All relative tolerances
    are scaled by a norm of the matrix at the point of use.
    """

    unit_norm_tol: float = 1e-9
    spectral_tol: float = 1e-7
    rank_tol: float = 1e-8
    residual_tol: float = 1e-8  # post-condition on every returned fixed or period-2 point
    bisection_tol: float = 1e-12
    singular_tol: float = 1e-12
    classify_tol: float = 1e-9  # affine regime bands around pullback norm 1
    cluster_tol: float = 1e-7  # eigenvalue clustering, relative
    coordinate_zero_tol: float = 1e-11  # branch dispatch on canonical coordinates
    spectrum_gap_tol: float = 1e-12  # resolvent parameter vs eigenvalue, relative
    guard_offset: float = 1e-10  # bracket endpoint guard near the spectrum, relative
    growth_factor: float = 10.0  # word-norm bound is growth_factor * dim
    max_word_length: int = 8
    random_words: int = 256
    oracle_words: int = 8  # words the semigroup test classifies, its generators included
    recurrence_eps: float = 1e-3  # separation an even-sphere witness pair must get below
    rng_seed: int = 0
    oracle: OracleBudget = field(default_factory=OracleBudget)

    def __post_init__(self):
        _check_fields(self)
        if not isinstance(self.oracle, OracleBudget):
            raise ValueError(f"oracle must be an OracleBudget, got {self.oracle!r}")

    def replace(self, **kwargs) -> "Config":
        return dataclasses.replace(self, **kwargs)

    def to_json(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        out["oracle"] = {f.name: getattr(self.oracle, f.name) for f in dataclasses.fields(self.oracle)}
        return out

    @functools.cached_property
    def json_text(self) -> str:
        """``to_json()`` as ``serialize.dump_json`` writes it, encoded once per instance.

        Cached on the instance, not by value: ``Config(unit_norm_tol=1)``
        equals ``Config(unit_norm_tol=1.0)`` but is written ``1``, not ``1.0``.
        """
        from .serialize import dump_json  # serialize imports this module

        return dump_json(self.to_json())


DEFAULT_CONFIG = Config()


def _json_number(key: str, value, kind: str, what: str = "config"):
    """A JSON number for a float or int field; integral floats such as 2.0 count as ints."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecParseError(f"{what} field {key} must be a number, got {value!r}")
    if kind == "float":
        return float(value)
    if isinstance(value, float) and not value.is_integer():
        raise SpecParseError(f"{what} field {key} must be an integer, got {value!r}")
    return int(value)


def json_count(key: str, value, what: str) -> int:
    """A JSON count field of a ``what`` file, held to the Config rule for counts."""
    count = _json_number(key, value, "int", what)
    try:
        check_count(key, count)
    except ValueError as exc:
        raise SpecParseError(f"{what} field {exc}") from exc
    return count


def known_fields(data: dict, fields, what: str) -> None:
    """Refuse a key of a ``what`` object that is not one of ``fields``."""
    for key in data:
        if key not in fields:
            raise SpecParseError(f"unknown {what} field: {key}")


def _record_from_dict(cls, data: dict, what: str):
    kinds = {f.name: f.type for f in dataclasses.fields(cls)}
    known_fields(data, kinds, what)
    kwargs = {}
    for key, value in data.items():
        if kinds[key] == "OracleBudget":
            if not isinstance(value, dict):
                raise SpecParseError("config 'oracle' must be an object")
            kwargs[key] = _record_from_dict(OracleBudget, value, "oracle budget")
        else:
            kwargs[key] = _json_number(key, value, kinds[key])
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise SpecParseError(str(exc)) from exc


def config_from_dict(data: dict) -> Config:
    """Build a Config from a flat dict, with an optional nested "oracle" block."""
    if not isinstance(data, dict):
        raise SpecParseError("config must be a JSON object")
    return _record_from_dict(Config, data, "config")


def read_json(path: str, what: str):
    """Parse the JSON file at ``path``; ``what`` names the file in error messages."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecParseError(f"cannot read {what} file {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise SpecParseError(f"{what} file {path} is not valid JSON: {exc}") from exc


def load_config(path: str | None = None) -> Config:
    """Load configuration from ``path``, the env fallback, or defaults.

    Resolution order: explicit path, then $SPHERE_DISTAL_CONFIG, then
    built-in defaults.
    """
    if path is None:
        path = os.environ.get(ENV_CONFIG_PATH)
    if path is None:
        return DEFAULT_CONFIG
    return config_from_dict(read_json(path, "config"))
