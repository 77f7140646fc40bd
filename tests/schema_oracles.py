"""jsonschema as the reference for the CLI's schema checks, and the report
schema check that only the tests make.

The CLI validates problem files and flags with `cli._schema_errors`,
stdlib check closures compiled from the keywords the problem schema uses.
jsonschema's Draft 2020-12 validator is the oracle they are compared
against; the report schema is checked here only.  jsonschema is imported
where it is used, so a test file that imports this module still collects,
and its other tests still run, on an interpreter without jsonschema.
"""

import json
from importlib import resources


def validate_report(report):
    import jsonschema

    schema = resources.files("fixedloci.schemas").joinpath("report.schema.json").read_text()
    jsonschema.validate(report, json.loads(schema))


def jsonschema_errors(value, schema):
    """jsonschema's (path, message) pairs for `value`, in its walk order."""
    import jsonschema

    return [(tuple(e.absolute_path), e.message)
            for e in jsonschema.Draft202012Validator(schema).iter_errors(value)]
