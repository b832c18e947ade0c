"""Which values a config field takes. A config dataclass declares each
field's bounds with setting(), and its __post_init__ runs check_fields,
which refuses a bad value in a ValueError that names the field."""

import math
from dataclasses import MISSING, field, fields

_NOUNS = {int: "an integer", float: "a number", str: "a string", bool: "a boolean",
          tuple: "a list of integers"}


def setting(default=MISSING, within=None, choices=None):
    """A dataclass field whose values lie in within, such as "(0, 1]", or among choices."""
    return field(default=default, metadata={"within": within, "choices": choices})


def check(name, value, kind, within=None, choices=None):
    """Refuse, in a ValueError naming name, a value that is not of kind (a
    bool only as a bool, an int as a float too, a tuple or list of ints as
    a tuple), not among choices, or not in within (each item of a tuple;
    NaN and +-inf lie in no interval)."""
    listed = kind is tuple and isinstance(value, (tuple, list))
    item_kind, items = (int, value) if listed else (kind, [value])
    ok = (int, float) if item_kind is float else item_kind
    if not all(isinstance(x, ok) and (kind is bool or not isinstance(x, bool)) for x in items):
        raise ValueError(f"{name} must be {_NOUNS.get(kind, 'an object')}, got {value!r}")
    if choices is not None and value not in choices:
        raise ValueError(f"{name} must be one of {', '.join(map(repr, choices))}, got {value!r}")
    for i, x in enumerate(items if within else ()):
        low, high = (float(end) for end in within[1:-1].split(","))
        label = f"{name}[{i}]" if listed else name
        if isinstance(x, float) and not math.isfinite(x):
            raise ValueError(f"{label} must be a finite number, got {x!r}")
        closed = x == low and within[0] == "[" or x == high and within[-1] == "]"
        if not (low < x < high or closed):
            bound = f"lie in {within}" if high < math.inf else (
                f"be {'>=' if within[0] == '[' else '>'} {low:g}")
            raise ValueError(f"{label} must {bound}, got {x!r}")


def check_fields(config):
    """check each field of the config dataclass; None passes as a None default."""
    for f in fields(config):
        if getattr(config, f.name) is not None or f.default is not None:
            check(f.name, getattr(config, f.name), f.type, **f.metadata)
