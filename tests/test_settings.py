"""Every integer setting and switch of the configs follows one rule.

Each `int` and `bool` field of `UNetConfig`, `UnfoldConfig`, `TrainConfig`
and `SensingOperator` is found through `dataclasses.fields`, so a field added
later without the rule fails here.  Set to an integer `n` given as a Python
int, a numpy integer or a decimal string, a construction either raises
`ValueError` or stores exactly `n` (an `int`, or a `bool` for a switch).  Set
to a float (a whole one included), a bool (for an `int` field), a word or
None, it raises `ValueError`.  Any valid config, its settings given in any of
those integer forms, comes back from a CSMW file equal, with the same digest.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cassi_ssm import cassi, checks, fileio, training, unfolding
from cassi_ssm.denoiser import UNetConfig

TINY = UNetConfig(bands=2, base_channels=4, levels=1, blocks_per_level=1,
                  patch=2, cube=(1, 1, 2), state_size=2, expansion=1)
VALID = {
    UNetConfig: dataclasses.asdict(TINY),
    unfolding.UnfoldConfig: {"stages": 2, "net": TINY, "share_weights": True},
    training.TrainConfig: {},
    cassi.SensingOperator: {"mask": np.ones((2, 2)), "shift_step": 1, "bands": 2},
}
SETTINGS = [(cls, f.name, f.type) for cls in VALID for f in dataclasses.fields(cls)
            if f.type in ("int", "bool")]


def test_every_config_has_settings():
    assert {cls for cls, _, _ in SETTINGS} == set(VALID)


@pytest.mark.parametrize("setting", SETTINGS, ids=[f"{c.__name__}.{n}" for c, n, _ in SETTINGS])
@settings(max_examples=40, deadline=None)
@given(n=st.integers(-3, 2**40), data=st.data())
def test_setting_refused_or_stored_as_int(setting, n, data):
    cls, name, kind = setting
    integers = [n, np.int64(n), str(n)]
    others = [2.5, float(n), np.float64(n), "x", None] + ([True] if kind == "int" else [])
    value = data.draw(st.sampled_from(integers + others))
    try:
        built = cls(**{**VALID[cls], name: value})
    except ValueError:
        return
    assert any(value is whole for whole in integers), f"{name}={value!r} was taken"
    stored = getattr(built, name)
    assert stored == n and type(stored) is (bool if kind == "bool" else int)


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("settings")


@st.composite
def unfold_configs(draw):
    """A valid config, each setting drawn as an int, a numpy integer or a decimal string."""
    def given_as(n):
        return draw(st.sampled_from([n, np.int64(n), str(n)]))

    small = st.integers(1, 2)
    cube = [draw(st.integers(1, 3)) for _ in range(3)]
    net = UNetConfig(
        bands=given_as(draw(st.integers(1, 3))),
        base_channels=given_as(cube[2] * draw(small)),
        levels=given_as(draw(st.integers(0, 2))),
        blocks_per_level=given_as(draw(small)),
        patch=given_as(math.lcm(cube[0], cube[1]) * draw(small)),
        cube=tuple(given_as(side) for side in cube),
        state_size=given_as(draw(small)),
        expansion=given_as(draw(small)))
    share = draw(st.sampled_from([True, False, 0, 1, np.int64(0), "0", "1"]))
    return unfolding.UnfoldConfig(stages=given_as(draw(st.integers(1, 3))), net=net,
                                  share_weights=share)


@settings(max_examples=40, deadline=None)
@given(unfold_configs())
def test_any_config_round_trips(folder, config):
    path = folder / "model.csmw"
    fileio.save_weights(path, unfolding.init_weights(config, seed=1), config)
    loaded = fileio.load_weights(path)
    assert loaded.config == config
    assert fileio.config_digest(loaded.config) == fileio.config_digest(config)
    unfolding.init_weights(loaded.config, seed=0).load_arrays(loaded.arrays)


# int() reads each of these: "1_0" as 10, "\u0663" (Arabic-Indic three) as 3
NOT_DECIMAL = {"underscore": "1_0", "arabic-indic": "\u0663", "fullwidth": "\uff11\uff10",
               "space": " 3"}


@pytest.mark.parametrize("text", NOT_DECIMAL.values(), ids=NOT_DECIMAL.keys())
@pytest.mark.parametrize("setting", SETTINGS, ids=[f"{c.__name__}.{n}" for c, n, _ in SETTINGS])
def test_integer_text_other_than_ascii_decimal_refused(setting, text):
    cls, name, _ = setting
    with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {text!r}")):
        cls(**{**VALID[cls], name: text})


@pytest.mark.parametrize("text,n", [("+3", 3), ("007", 7), ("-0", 0), ("-4", -4)])
def test_signed_ascii_decimal_taken(text, n):
    assert checks.integer(text, "n", least=-4) == n


@pytest.mark.parametrize("text", ["0.2_5", "1_0", "\u0660.\u0665", "\uff10.5",
                                  " 0.5", "0.5 ", "0.5\n", "\t0", b"0.5"],
                         ids=["underscore", "underscore-int", "arabic-indic", "fullwidth",
                              "leading-space", "trailing-space", "newline", "tab", "bytes"])
@pytest.mark.parametrize("field,what", [("learning_rate", "learning rate"),
                                        ("zero_ratio", "zero ratio")], ids=["lr", "ratio"])
def test_number_text_with_underscore_or_non_ascii_refused(field, what, text):
    with pytest.raises(ValueError, match=re.escape(f"{what} must be a number, got {text!r}")):
        training.TrainConfig(**{field: text})
