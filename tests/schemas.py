"""JSON Schema checks of reports and manifests, for the tests.

The schemas ship as package data in ``pdcfa/schemas``; the program itself
never imports ``jsonschema``: ``cli.check_manifest`` checks a manifest by
its own walk over ``manifest.schema.json``.
"""

import functools
import gc
import json
from importlib import resources

from jsonschema.exceptions import best_match
from jsonschema.validators import extend, validator_for


def load_schema(name: str) -> dict:
    ref = resources.files("pdcfa").joinpath("schemas", f"{name}.schema.json")
    return json.loads(ref.read_text(encoding="utf-8"))


@functools.cache
def _validator(schema_name: str):
    """One checked validator per schema, built on first use."""
    schema = load_schema(schema_name)
    cls = validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_document(doc, schema_name: str) -> None:
    """Raise what ``jsonschema.validate`` raises: the best-matching error."""
    error = best_match(_validator(schema_name).iter_errors(doc))
    if error is not None:
        raise error




def _content(value) -> tuple:
    """A scalar's or an array of scalars' value with its JSON types (True
    == 1 and 1.0 == 1 in Python); TypeError for an object."""
    t = type(value)
    if t is dict:
        raise TypeError("an object")
    return (t, *map(_content, value)) if t is list else (t, value)


def validate_written(data: bytes, schema_name: str) -> None:
    """``validate_document(json.loads(data), schema_name)``, in seconds on a
    flow report of a hundred megabytes: equal objects whose values are
    scalars or arrays of scalars (a finding's state refs, trigger, sink) are
    parsed as one object, and an array's items and an object's properties
    check each object against each subschema once."""
    flat: dict = {}  # content -> the one object parsed with it

    def one_object(obj: dict) -> dict:
        try:
            return flat.setdefault(
                tuple((k, _content(v)) for k, v in obj.items()), obj)
        except TypeError:  # it holds an object
            return obj

    valid: set = set()  # (id of subschema, id of object) checked, no error

    def descend_once(validator, instance, schema, **where):
        if (id(schema), id(instance)) not in valid:
            errors = list(validator.descend(instance, schema, **where))
            if not errors:
                valid.add((id(schema), id(instance)))
            yield from errors

    def items(validator, schema, instance, _parent):  # as draft 7's, once
        if not validator.is_type(instance, "array"):
            return
        if validator.is_type(schema, "array"):
            for (index, item), subschema in zip(enumerate(instance), schema):
                yield from descend_once(validator, item, subschema,
                                        path=index, schema_path=index)
        else:
            for index, item in enumerate(instance):
                yield from descend_once(validator, item, schema, path=index)

    def properties(validator, schema, instance, _parent):  # once each
        if not validator.is_type(instance, "object"):
            return
        for name, subschema in schema.items():
            if name in instance:
                yield from descend_once(validator, instance[name], subschema,
                                        path=name, schema_path=name)

    base = _validator(schema_name)
    cls = extend(type(base), {"items": items, "properties": properties})
    gc.disable()  # a parse makes a million objects and no cycle
    try:
        doc = json.loads(data, object_hook=one_object)
    finally:
        gc.enable()
    error = best_match(cls(base.schema).iter_errors(doc))
    if error is not None:
        raise error
