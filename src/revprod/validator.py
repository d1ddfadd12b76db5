"""The eleven JSON Schema keywords of the shipped artifact schemas, checked with draft 2020-12's meaning and
jsonschema's messages: type (one name), enum, const, pattern, minimum, exclusiveMinimum, maximum, required, properties,
items (one schema) and additionalProperties.  A schema with any other keyword is refused when it is loaded."""

import json
import re
from pathlib import Path

_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "number": (int, float), "integer": int}
_CHECKS = {  # keyword: (x, the keyword's value w) -> jsonschema's message where x fails it, else a false value
    "type": lambda x, w: not _is(x, w) and f"{x!r} is not of type {w!r}",
    "enum": lambda x, w: x not in w and f"{x!r} is not one of {w!r}",  # == is jsonschema's equality on strings
    "const": lambda x, w: x != w and f"{w!r} was expected",
    "pattern": lambda x, w: isinstance(x, str) and not re.search(w, x) and f"{x!r} does not match {w!r}",
    "minimum": lambda x, w: _is(x, "number") and x < w and f"{x!r} is less than the minimum of {w!r}",
    "exclusiveMinimum": lambda x, w: _is(x, "number") and x <= w and f"{x!r} is less than or equal to the minimum of {w!r}",
    "maximum": lambda x, w: _is(x, "number") and x > w and f"{x!r} is greater than the maximum of {w!r}",
    "required": lambda x, w: isinstance(x, dict) and next((f"{k!r} is a required property" for k in w if k not in x), None),
}
_KEYWORDS = {*_CHECKS, "properties", "items", "additionalProperties", "$schema", "title", "description"}


def _is(x, kind: str) -> bool:
    """jsonschema's type check: a bool is of no type but boolean, and an integral float is an integer."""
    return isinstance(x, _TYPES[kind]) and isinstance(x, bool) == (kind == "boolean") or kind == "integer" and (
        isinstance(x, float) and x.is_integer())


def _checked(schema, name: str) -> dict:
    """schema, once it and every schema inside it use only the keywords _walk checks, and one type name."""
    extra = schema.get("additionalProperties", True) if isinstance(schema, dict) else None
    if extra is None or set(schema) - _KEYWORDS or schema.get("type", "object") not in [*_TYPES]:
        raise ValueError(f"{name}: a schema may use only {sorted(_KEYWORDS)} and one type name, not {schema}")
    subs = [*schema.get("properties", {}).values(), *([schema["items"]] if "items" in schema else [])]
    for sub in subs if isinstance(extra, bool) else [*subs, extra]:
        _checked(sub, name)
    return schema


def _walk(schema: dict, x, path: str, name: str) -> None:
    """Raise "<name>: <JSON path>: <message>" where x first fails schema: its own keywords first, in schema order."""
    for key, w in schema.items():
        if key in _CHECKS and (message := _CHECKS[key](x, w)):
            raise ValueError(f"{name}: {path}: {message}")
    props, extra = schema.get("properties", {}), schema.get("additionalProperties", True)
    if isinstance(x, dict):
        if extra is False and (extras := sorted(k for k in x if k not in props)):
            raise ValueError(f"{name}: {path}: Additional properties are not allowed ({', '.join(map(repr, extras))} "
                             + ("was unexpected)" if len(extras) == 1 else "were unexpected)"))
        for k, v in x.items():
            if isinstance(sub := props.get(k, extra), dict):  # the member's JSON path as jsonschema writes it
                member = f".{k}" if re.match("^[a-zA-Z][a-zA-Z0-9_]*$", k) else "['" + re.sub(r"([\\'])", r"\\\1", k) + "']"
                _walk(sub, v, path + member, name)
    for i, item in enumerate(x if isinstance(x, list) and "items" in schema else ()):
        _walk(schema["items"], item, f"{path}[{i}]", name)


def validate(instance, schema_name: str) -> None:
    """Raise a ValueError naming the shipped schema and the JSON path where instance first fails it."""
    schema = json.loads((Path(__file__).with_name("schemas") / schema_name).read_text())
    _walk(_checked(schema, schema_name), instance, "$", schema_name)
