"""revprod.validator against jsonschema, the reference it replaces: every artifact of the shipped configs, and
mutations of them that break each keyword each schema uses, get the same verdict and the same message."""

import copy
import json
import re
from pathlib import Path

import jsonschema
import pytest

from revprod import validator
from revprod.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]

ARTIFACTS = {
    "provenance.json": "provenance.schema.json",
    "verify_report.json": "verify_report.schema.json",
    "estimate_quantity.json": "estimate_result.schema.json",
    "estimate_revenue.json": "estimate_result.schema.json",
    "identification_report.json": "identification_report.schema.json",
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """{(config, artifact name): the artifact's JSON} for every artifact of the two shipped configs."""
    docs = {}
    for config in ("ces.ini", "cd.ini"):
        out, ini = tmp_path_factory.mktemp(config), str(ROOT / "configs" / config)
        panel = str(out / "panel.csv")
        assert main(["simulate", "--config", ini, "--out", str(out)]) == EXIT_OK
        estimates = (["estimate", panel, "--mode", mode] for mode in ("quantity", "revenue"))
        for argv in (["verify", panel], ["diagnose", panel], *estimates):
            assert main([*argv, "--config", ini, "--out", str(out)]) == EXIT_OK
        docs.update({(config, name): json.loads((out / name).read_text()) for name in ARTIFACTS})
    return docs


def _schema(name):
    return json.loads((Path(validator.__file__).with_name("schemas") / name).read_text())


# replacements of a value of each type: the wrong types, and an integral float, which is an integer
_RETYPED = {
    "object": [[], None, "x"],
    "array": [{}, None, "x"],
    "string": [1, None, []],
    "number": ["1", True, None],
    "integer": [1.5, True, None, 3.0],
    "boolean": [1, 0, "true", None],
}


def _mutations(schema, value, path=()):
    """(keyword, path, new value) triples: each keyword of schema that applies to value, broken, and near misses
    that meet it, then the same inside value's members (the first item of an array, the first additional property)."""
    for key, w in schema.items():
        if key == "type":
            yield from ((key, path, v) for v in _RETYPED[w])
        elif key == "enum":
            yield from ((key, path, v) for v in ("bogus", None, w[-1]))
        elif key == "const":
            yield from ((key, path, v) for v in ("bogus", w.upper(), w))
        elif key == "pattern":
            yield from ((key, path, v) for v in ("g" * 64, value + "0", value[:-1], value))
        elif key == "minimum":
            yield from ((key, path, v) for v in (w - 1, w, w + 0.5))
        elif key == "exclusiveMinimum":
            yield from ((key, path, v) for v in (w, w - 1, w + 1e-300))
        elif key == "maximum":
            yield from ((key, path, v) for v in (w + 1, w, w - 0.5))
        elif key == "required" and isinstance(value, dict):
            yield from ((key, path, {k: v for k, v in value.items() if k != gone}) for gone in w if gone in value)
        elif key == "properties" and isinstance(value, dict):
            for k, sub in w.items():
                if k in value:
                    yield key, path, {**value, k: None}
                    yield from _mutations(sub, value[k], (*path, k))
        elif key == "additionalProperties" and isinstance(value, dict):
            extra = next((k for k in value if k not in schema.get("properties", {})), None)
            # two extras only where they make one error: jsonschema checks extras against a schema in set order
            added = [{"zz": None}, {"zz": 1.0}, {"it's a\\b": None}] + [{"zz": 1, "aa": 2}] * (w is False)
            yield from ((key, path, {**value, **extras}) for extras in added)
            if isinstance(w, dict) and extra is not None:
                yield from _mutations(w, value[extra], (*path, extra))
        elif key == "items" and isinstance(value, list):
            yield from ((key, path, v) for v in ([*value, None], [None, *value[1:]], []))
            if value:
                yield from _mutations(w, value[0], (*path, 0))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return doc


def _reference(doc, schema, name):
    error = jsonschema.exceptions.best_match(jsonschema.validators.validator_for(schema)(schema).iter_errors(doc))
    return None if error is None else f"{name}: {error.json_path}: {error.message}"


def _ours(doc, name):
    try:
        validator.validate(doc, name)
    except ValueError as exc:
        return str(exc)
    return None


def _keywords(schema):
    """The validation keywords schema and the schemas inside it use, additionalProperties true aside."""
    used = set(schema) - {"$schema", "title", "description"}
    if schema.get("additionalProperties") is True:
        used.remove("additionalProperties")
    subs = [*schema.get("properties", {}).values()]
    subs += [schema[k] for k in ("items", "additionalProperties") if isinstance(schema.get(k), dict)]
    return used.union(*map(_keywords, subs))


def test_validator_agrees_with_jsonschema(artifacts):
    broken = set()
    for (config, artifact), doc in artifacts.items():
        name = ARTIFACTS[artifact]
        schema = _schema(name)
        assert _ours(doc, name) is None and _reference(doc, schema, name) is None, (config, artifact)
        for keyword, path, value in _mutations(schema, doc):
            mutated = _replaced(doc, path, value)
            expected = _reference(mutated, schema, name)
            assert _ours(mutated, name) == expected, (config, artifact, keyword, path, value)
            if expected is not None:
                broken.add((name, keyword))
    # every keyword of every schema was broken at least once
    assert broken == {(name, k) for name in set(ARTIFACTS.values()) for k in _keywords(_schema(name))}


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "object", "minProperties": 1},
        {"type": "object", "properties": {"a": {"type": "string", "format": "date"}}},
        {"type": "array", "items": {"type": "number", "multipleOf": 2}},
        {"type": "object", "additionalProperties": {"type": "object", "$ref": "#"}},
        {"type": ["number", "null"]},
        {"type": "null"},
        {"type": "array", "items": [{"type": "number"}]},
    ],
    ids=["top-level", "in-properties", "in-items", "in-additionalProperties", "type-list", "type-null", "items-list"],
)
def test_schema_with_an_unchecked_keyword_refused_on_load(tmp_path, monkeypatch, schema):
    # a keyword the validator does not check would pass every instance, so a schema using one is refused
    (tmp_path / "schemas").mkdir()
    name = "unchecked.schema.json"
    (tmp_path / "schemas" / name).write_text(json.dumps(schema))
    monkeypatch.setattr(validator, "__file__", str(tmp_path / "validator.py"))
    with pytest.raises(ValueError, match=f"^{re.escape(name)}: "):
        validator.validate({}, name)
