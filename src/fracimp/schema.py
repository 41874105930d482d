"""`load` and `dump`, the one reader and writer of JSON files, and `check`, the schema subset.

`load` also reports, in the same "invalid <what> <path>: <cause>" form, the
rules a schema cannot state, which the caller's `build` enforces: strictly
increasing harmonics, a_1 != 0, whole samples per period.

Keywords: type, properties, required, dependentRequired, additionalProperties
(false only), minimum, exclusiveMinimum, enum and items.  Types follow Draft
2020-12: an integer-valued float such as 1.0 is an integer, and a boolean is
neither an integer nor a number; `check` returns every "integer" number as an
int.  Unlike JSON Schema, every number must lie in the float range,
|value| <= sys.float_info.max: Python's json module reads NaN, Infinity and
integers of any size.

Every JSON output carries ``schema_version``.  A key added to an output keeps
SCHEMA_VERSION as it is, because every reader accepts keys it does not know;
removing or renaming a key bumps it.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from .errors import SchemaError

SCHEMA_VERSION = "1"  # written by `dump` into every JSON output file
POSITIVE_NUMBER = {"type": "number", "exclusiveMinimum": 0}
COUNT = {"type": "integer", "minimum": 1}
NUMBERS = {"type": "array", "items": {"type": "number"}}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}


def load(path: str | Path, schema: dict, what: str, build=None):
    """The JSON value in `path`, checked, or `build` of it when given.

    Every failure is a SchemaError "invalid <what> <path>: ...", any ValueError
    from `build` included (numpy's LinAlgError too), so `build` only checks.
    """
    context = f"invalid {what} {path}"
    try:
        value = json.loads(Path(path).read_text())
    except OSError as exc:
        raise SchemaError(f"{context}: {exc.strerror}") from exc
    except ValueError as exc:  # undecodable bytes or invalid JSON
        raise SchemaError(f"{context}: not valid JSON: {exc}") from exc
    except RecursionError as exc:  # json's message varies across Python versions
        raise SchemaError(f"{context}: not valid JSON: nested too deeply to decode") from exc
    value = check(value, schema, context)
    try:
        return value if build is None else build(value)
    except ValueError as exc:
        raise SchemaError(f"{context}: {exc}") from exc


def dump(path: str | Path, payload: dict) -> None:
    """Write `payload` to `path` as indented JSON, led by ``schema_version``."""
    text = json.dumps({"schema_version": SCHEMA_VERSION, **payload}, indent=2)
    Path(path).write_text(text + "\n")


def check(value, schema: dict, context: str, key: str = ""):
    """`value` with its "integer" numbers as ints; SchemaError naming `context`
    and the key path where `value` breaks `schema`."""
    def fail(problem: str):
        raise SchemaError(f"{context}: {key or 'top level'} {problem}")

    if _is_number(value) and not abs(value) <= sys.float_info.max:  # also NaN
        fail("must be a finite number")
    expected = schema.get("type")
    if expected is not None and not _TYPES[expected](value):
        fail(f"must be of type {expected}, got {value!r}")
    if "enum" in schema and value not in schema["enum"]:
        fail(f"must be one of {schema['enum']}, got {value!r}")
    if _is_number(value) and value < schema.get("minimum", -math.inf):
        fail(f"must be >= {schema['minimum']}, got {value!r}")
    if _is_number(value) and value <= schema.get("exclusiveMinimum", -math.inf):
        fail(f"must be > {schema['exclusiveMinimum']}, got {value!r}")
    if expected == "integer":
        return int(value)
    if isinstance(value, list) and "items" in schema:
        return [check(item, schema["items"], context, f"{key}[{i}]")
                for i, item in enumerate(value)]
    if isinstance(value, dict):
        prefix = f"{key}." if key else ""
        for name in schema.get("required", ()):
            if name not in value:
                raise SchemaError(f"{context}: missing required key {prefix}{name}")
        for name, needed in schema.get("dependentRequired", {}).items():
            for other in needed:
                if name in value and other not in value:
                    raise SchemaError(f"{context}: missing key {prefix}{other}, "
                                      f"required with {prefix}{name}")
        properties, checked = schema.get("properties", {}), {}
        for name, item in value.items():
            if name in properties:
                item = check(item, properties[name], context, prefix + name)
            elif schema.get("additionalProperties") is False:
                raise SchemaError(f"{context}: unknown key {prefix}{name}")
            checked[name] = item
        return checked
    return value
