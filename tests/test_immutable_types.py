"""What cores share or observe is immutable by type.

Every job of a batch slice loads the same assembled ``Program``
objects, and every subscriber of the event bus receives the same event
objects.  Writing to either raises, in every run.
"""

import dataclasses

import pytest

from repro.pipeline.events import ALL_EVENT_TYPES
from repro.workloads.suite import WorkloadSuite


@pytest.fixture(scope="module")
def program():
    return WorkloadSuite().program("compress")


def test_program_fields_cannot_be_rebound(program):
    with pytest.raises(dataclasses.FrozenInstanceError):
        program.entry = program.text_base
    with pytest.raises(dataclasses.FrozenInstanceError):
        program.instructions = ()


def test_program_instructions_reject_assignment(program):
    assert isinstance(program.instructions, tuple)
    with pytest.raises(TypeError):
        program.instructions[0] = program.instructions[1]


def test_program_labels_reject_assignment(program):
    with pytest.raises(TypeError):
        program.labels["main"] = program.text_base
    with pytest.raises(TypeError):
        program.labels["sneaky"] = program.text_base


@pytest.mark.parametrize("event_type", ALL_EVENT_TYPES, ids=lambda t: t.__name__)
def test_built_events_reject_field_assignment(event_type):
    fields = dataclasses.fields(event_type)
    event = event_type(*(0 for _ in fields))
    for field in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(event, field.name, 1)
