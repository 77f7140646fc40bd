"""jsonschema as the reference for the CLI's schema checks, and the report
schema check that only the tests make.

The CLI validates problem files and flags with `cli._schema_errors`,
stdlib check closures compiled from the keywords the problem schema uses.
jsonschema's Draft 2020-12 validator is the oracle they are compared
against; the report schema is checked here only.
"""

import json
from importlib import resources

import jsonschema


def validate_report(report):
    schema = resources.files("fixedloci.schemas").joinpath("report.schema.json").read_text()
    jsonschema.validate(report, json.loads(schema))


def jsonschema_errors(value, schema):
    """jsonschema's (path, message) pairs for `value`, in its walk order."""
    return [(tuple(e.absolute_path), e.message)
            for e in jsonschema.Draft202012Validator(schema).iter_errors(value)]
