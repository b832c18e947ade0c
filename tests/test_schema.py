from dataclasses import fields

import pytest

from tagaug.edges import EdgeAssignConfig
from tagaug.embedding import EncoderConfig
from tagaug.generation import GeneratorConfig
from tagaug.graph import SPLIT_SETTINGS
from tagaug.neural import TrainConfig
from tagaug.pipeline import RunConfig
from tagaug.schema import check, check_fields

CONFIGS = (RunConfig, EncoderConfig, GeneratorConfig, TrainConfig, EdgeAssignConfig)


@pytest.mark.parametrize(
    "within, inside, outside, message",
    [
        ("[1, inf)", [1, 2, 10**30], [0, -1, 0.5], "x must be >= 1, got {}"),
        ("(0, inf)", [1e-12, 5], [0, -0.0, -3], "x must be > 0, got {}"),
        ("(0, 1]", [1e-12, 0.5, 1], [0, 1.0000001, -1], "x must lie in (0, 1], got {}"),
        ("[0, 1)", [0, 0.0, 0.999], [1, 1.0, -1e-12], "x must lie in [0, 1), got {}"),
    ],
)
def test_each_endpoint_is_open_or_closed_as_its_bracket_says(within, inside, outside, message):
    for value in inside:
        check("x", value, float, within)
    for value in outside:
        with pytest.raises(ValueError) as info:
            check("x", value, float, within)
        assert str(info.value) == message.format(repr(value))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("within", ["[0, inf)", "(0, 1]"])
def test_nan_and_infinities_lie_in_no_interval(value, within):
    with pytest.raises(ValueError) as info:
        check("rate", value, float, within)
    assert str(info.value) == f"rate must be a finite number, got {value!r}"


@pytest.mark.parametrize(
    "value, kind, message",
    [
        (True, int, "n must be an integer, got True"),
        (2.5, int, "n must be an integer, got 2.5"),
        (False, float, "n must be a number, got False"),
        ("0", float, "n must be a number, got '0'"),
        (1, bool, "n must be a boolean, got 1"),
        (None, str, "n must be a string, got None"),
        ((1, True), tuple, "n must be a list of integers, got (1, True)"),
        (3, tuple, "n must be a list of integers, got 3"),
        ({}, TrainConfig, "n must be an object, got {}"),
    ],
)
def test_the_annotation_is_checked_before_the_bound(value, kind, message):
    with pytest.raises(ValueError) as info:
        check("n", value, kind, "[0, inf)" if kind in (int, float, tuple) else None)
    assert str(info.value) == message


def test_an_int_is_a_number_and_a_bool_is_a_boolean():
    check("x", 1, float, "(0, 1]")
    check("x", True, bool)


def test_each_item_of_a_list_lies_within_and_is_named_by_position():
    check("dims", [1, 64], tuple, "[1, inf)")
    check("dims", (), tuple, "[1, inf)")
    with pytest.raises(ValueError) as info:
        check("dims", (64, 0, -1), tuple, "[1, inf)")
    assert str(info.value) == "dims[1] must be >= 1, got 0"


def test_choices_are_listed_in_their_order():
    check("kind", "remote", str, choices=("mock", "remote"))
    with pytest.raises(ValueError) as info:
        check("kind", "mocl", str, choices=("mock", "remote"))
    assert str(info.value) == "kind must be one of 'mock', 'remote', got 'mocl'"


def test_none_passes_only_where_it_is_the_default():
    cfg = RunConfig("d", "o", 0, tail_class_count=None, num_mode=None)
    check_fields(cfg)
    with pytest.raises(ValueError, match="^seed must be an integer, got None$"):
        TrainConfig(seed=None)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.__name__)
def test_every_numeric_field_declares_its_bound(config):
    # A new int, float or list field cannot be added unbounded.
    for f in fields(config):
        if f.type in (int, float, tuple):
            assert f.metadata.get("within") or f.metadata.get("choices"), f.name


def test_run_config_declares_the_split_settings():
    bounds = {f.name: f.metadata.get("within") for f in fields(RunConfig)}
    assert {name: bounds[name] for name in SPLIT_SETTINGS} == SPLIT_SETTINGS
