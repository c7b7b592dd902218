"""Pin every ``SimulationConfig`` default against ``CONFIG_SCHEMA``.

``config_hash`` hashes only fields that differ from their default, next
to ``CONFIG_SCHEMA``.  That is sound under two rules, checked here
against ``config_defaults.json`` (each field's default ``repr``, taken
at one schema):

* a default changes only together with a ``CONFIG_SCHEMA`` bump;
* a field disappears only with a line in :mod:`repro.checkpoint.retired`.

Re-pin after a bump or a new field::

    PYTHONPATH=src python -m tests.sim.test_config_defaults
"""

import dataclasses
import json
import pathlib

from repro.checkpoint import retired
from repro.sim import SimulationConfig

PINNED = pathlib.Path(__file__).with_name("config_defaults.json")


def current_defaults():
    defaults = {}
    for spec in dataclasses.fields(SimulationConfig):
        if spec.default_factory is not dataclasses.MISSING:
            defaults[spec.name] = repr(spec.default_factory())
        else:
            defaults[spec.name] = repr(spec.default)
    return defaults


def test_defaults_change_only_with_a_schema_bump():
    pinned = json.loads(PINNED.read_text())
    assert pinned["schema"] == retired.CONFIG_SCHEMA, (
        "repro.checkpoint.retired.CONFIG_SCHEMA changed: re-pin the defaults"
    )
    current = current_defaults()
    changed = {
        name: (pinned["defaults"][name], value)
        for name, value in current.items()
        if name in pinned["defaults"] and pinned["defaults"][name] != value
    }
    assert not changed, (
        f"defaults changed without a bump of repro.checkpoint.retired.CONFIG_SCHEMA: {changed}"
    )
    assert not current.keys() - pinned["defaults"].keys(), "re-pin the new fields"


def test_deleted_fields_are_retired():
    pinned = json.loads(PINNED.read_text())
    gone = pinned["defaults"].keys() - current_defaults().keys()
    assert not gone - retired.FIELDS.keys(), (
        "a deleted config field needs a line in repro.checkpoint.retired"
    )


def main():
    document = {"schema": retired.CONFIG_SCHEMA, "defaults": current_defaults()}
    PINNED.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
