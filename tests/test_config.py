import dataclasses
import math

import pytest

from sphere_distal import Config, OracleBudget, SpecParseError
from sphere_distal.config import config_from_dict

INT_FIELDS = [(None, f.name) for f in dataclasses.fields(Config) if f.type == "int"] + [
    ("oracle", f.name) for f in dataclasses.fields(OracleBudget) if f.type == "int"
]


@pytest.mark.parametrize("value", [True, 1.7, -1, "3"])
@pytest.mark.parametrize("block,name", INT_FIELDS)
def test_int_fields_reject_bools_fractions_negatives_and_text(block, name, value):
    data = {name: value} if block is None else {block: {name: value}}
    with pytest.raises(SpecParseError):
        config_from_dict(data)
    with pytest.raises(ValueError):
        if block is None:
            Config(**{name: value})
        else:
            Config(oracle=OracleBudget(**{name: value}))


@pytest.mark.parametrize("value", [[1], True, "1e-3", math.nan, math.inf, 0.0])
def test_float_fields_reject_non_numbers_and_non_positive(value):
    with pytest.raises(SpecParseError):
        config_from_dict({"spectral_tol": value})


def test_zero_counts_and_integral_floats_are_accepted():
    config = config_from_dict({"max_word_length": 0, "rng_seed": 5.0, "oracle": {"iterations": 0}})
    assert config.max_word_length == 0 and config.oracle.iterations == 0
    assert config.rng_seed == 5 and isinstance(config.rng_seed, int)


@pytest.mark.parametrize("oracle", [{"samples": 3}, None, 64])
def test_oracle_must_be_an_oracle_budget(oracle):
    with pytest.raises(ValueError, match="oracle must be an OracleBudget"):
        Config(oracle=oracle)
