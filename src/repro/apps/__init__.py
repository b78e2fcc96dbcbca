"""Benchmark applications (§5.1): bfs, sssp, cc, pagerank, plus k-core,
bc and the feature apps.

Each application is a vertex program in the paper's sense (§2.1): node
labels, an operator applied until global quiescence, and per-field
synchronization structures handed to Gluon.  Every app is defined once,
as a :class:`~repro.compiler.spec.ProgramSpec` in
:mod:`repro.apps.specs`; the class registered here is the one the sync
compiler generates from it.  ``bc`` is a staged spec: its forward and
backward sweeps run one after another in one executor.
"""

import functools

from repro.apps.base import AppContext, StepOutcome, VertexProgram
from repro.apps.specs import (
    OPTIMIZED_SUFFIX,
    PROGRAM_SPECS,
    SPEC_ALIASES,
    optimized_app_names,
    spec_for,
)
from repro.compiler.program_codegen import compile_program

# Compiled once, at import: before any job is timed, and before a layer
# profiler rebinds the kernels the generated modules import.
APP_BY_NAME = {
    name: type(compile_program(spec)) for name, spec in PROGRAM_SPECS.items()
}
APP_BY_NAME.update(
    {alias: APP_BY_NAME[name] for alias, name in SPEC_ALIASES.items()}
)


def runnable_app_names():
    """Every name :func:`make_app` accepts — what ``repro run --app`` and
    a service ``JobSpec`` validate against."""
    return sorted(APP_BY_NAME) + optimized_app_names()


@functools.lru_cache(maxsize=None)
def _optimized_class(spec) -> type:
    return type(compile_program(spec, optimize=True))


def make_app(name: str):
    """Construct an application by its short name (bfs/sssp/cc/pr/kcore/...).

    A bare name resolves through ``APP_BY_NAME`` — the program generated
    from ``PROGRAM_SPECS[name]``.
    ``<app>@optimized`` is the same spec built with
    ``compile_program(optimize=True)`` (GL301 dead-sync elimination +
    GL302 phase fusion): bitwise-identical results, fewer messages.
    """
    key = name.lower()
    if key.endswith(OPTIMIZED_SUFFIX):
        return _optimized_class(spec_for(key))()
    try:
        cls = APP_BY_NAME[key]
    except KeyError:
        known = ", ".join(sorted(APP_BY_NAME))
        raise ValueError(f"unknown application {name!r} (known: {known})") from None
    return cls()


__all__ = [
    "VertexProgram",
    "AppContext",
    "StepOutcome",
    "make_app",
    "APP_BY_NAME",
    "runnable_app_names",
]
