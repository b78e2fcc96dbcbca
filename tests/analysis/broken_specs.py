"""Deliberately-broken program specs: a ``repro lint --module`` target.

``WRONG_WRITE_SPEC`` is sssp with its wire's endpoints pinned by hand
to writes at the source only (its relaxation writes the destination):
GL001, plus GL004 for the underived source write and GL005 for an
extra destination read.  ``WRONG_READ_SPEC`` pins reads to the
destination only (the relaxation reads the source): GL002, plus GL005.
``UNSYNCED_TARGET_SPEC`` scatters into a field no wire carries: GL003.
``RULE_FIXTURES`` maps each rule to the spec that fires it.
(``repro lint --module`` lints every spec bound at a module's top
level, so sssp's own is reached through its module, not imported by
name.)
"""

import dataclasses

import numpy as np

from repro.apps import specs
from repro.compiler import FieldDecl, PhaseSpec, ProgramSpec, SyncDecl

WRONG_WRITE_SPEC = dataclasses.replace(
    specs.SSSP_SPEC,
    name="wrong-write-endpoint",
    endpoint_overrides=(
        ("dist", (frozenset({"source"}),
                  frozenset({"source", "destination"}))),
    ),
)

WRONG_READ_SPEC = dataclasses.replace(
    specs.SSSP_SPEC,
    name="wrong-read-endpoint",
    endpoint_overrides=(
        ("dist", (frozenset({"destination"}), frozenset({"destination"}))),
    ),
)

UNSYNCED_TARGET_SPEC = ProgramSpec(
    name="unsynced-target",
    fields=tuple(
        FieldDecl(name, np.uint32, reduce="min",
                  init="np.zeros(n, dtype=np.uint32)")
        for name in ("x", "y")
    ),
    phases=(
        PhaseSpec("p", "frontier_push", "x", kernel="{src.x}"),
        PhaseSpec("q", "frontier_push", "y", kernel="{src.x}"),
    ),
    sync=(SyncDecl("x"),),
)

#: Spec-decidable rule -> name of the spec above that fires it.
RULE_FIXTURES = {
    "GL001": WRONG_WRITE_SPEC.name,
    "GL002": WRONG_READ_SPEC.name,
    "GL003": UNSYNCED_TARGET_SPEC.name,
    "GL004": WRONG_WRITE_SPEC.name,
    "GL005": WRONG_READ_SPEC.name,
}
