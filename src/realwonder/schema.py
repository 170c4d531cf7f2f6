"""One strict reader for the JSON inputs.

A kind is the exact JSON type a value must have: int (an integer, not a
boolean), bool, str, dict (an object) or list; a range of integers; or
[kind], a list whose items all have that kind.  A spec maps each key of
an object to its kind (a required key) or to (kind, default) (an
optional key; null stands for it only where the default is None).
Nothing is coerced: a missing required key, an unknown key and a
mistyped value are each an InputError naming the input, key and value.
"""

from __future__ import annotations

from .errors import InputError

_NOUNS = {int: "integer", bool: "boolean", str: "string", dict: "object", list: "list"}


def check(value, kind, name: str):
    """value, if it has the given kind; else an InputError naming it (a
    list item by its index, as in name[2])."""
    if isinstance(kind, range):
        ok = type(value) is int and value in kind
        noun = f"an integer from {kind.start} to {kind.stop - 1}"
    else:
        base = list if isinstance(kind, list) else kind
        ok, noun = type(value) is base, f"a JSON {_NOUNS[base]}"
    if not ok:
        raise InputError(f"{name} must be {noun}, got {value!r}")
    if isinstance(kind, list):
        for i, item in enumerate(value):
            check(item, kind[0], f"{name}[{i}]")
    return value


def read(data, spec: dict, where: str = "", quote: str = "") -> dict:
    """The fields of the JSON object data, checked against spec, with
    every key of spec present (an absent optional key has its default).
    Messages start with where and put each key between quote marks."""
    if type(data) is not dict:
        raise InputError(f"{where}expected a JSON object, got {data!r}")
    for key, value in data.items():
        if key not in spec:
            raise InputError(
                f"{where}unknown key {key!r} (value {value!r}); the keys are {', '.join(spec)}"
            )
    fields = {}
    for key, kind in spec.items():
        kind, default = kind if type(kind) is tuple else (kind, ...)
        if key not in data and default is ...:
            raise InputError(f"{where}missing key {key!r}")
        value = data.get(key, default)
        if value is not None or default is not None:
            value = check(value, kind, f"{where}{quote}{key}{quote}")
        fields[key] = value
    return fields
