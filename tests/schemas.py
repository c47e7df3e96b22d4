"""JSON Schema checks of reports and manifests, for the tests.

The schemas ship as package data in ``pdcfa/schemas``; the program itself
never imports ``jsonschema`` (the CLI checks a manifest by hand,
``cli.check_manifest``).
"""

import functools
import json
from importlib import resources

from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for


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
