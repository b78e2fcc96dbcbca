"""End-to-end verification of distributed runs against the oracles.

``verify_run(result, edges)`` recomputes the answer with the sequential
oracle matching the run's application and compares master values — the
programmatic version of "check the cluster against one machine".  Used by
examples and available to downstream users as a first-class API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import oracles
from repro.apps.specs import base_app_name
from repro.errors import ReproError
from repro.features import fp16_tolerance
from repro.features.oracles import (
    featprop_features,
    labelprop_labels,
    sage_hidden,
)
from repro.graph.edgelist import EdgeList
from repro.runtime.stats import RunResult
from repro.systems import prepare_input


class VerificationError(ReproError):
    """Raised when a distributed result disagrees with its oracle."""


@dataclass(frozen=True)
class Verification:
    """Outcome of one verification."""

    app: str
    matched: bool
    max_abs_error: float
    detail: str = ""


def _feature_tolerance(rounds):
    """fp16 runs get the documented bound; lossless runs stay exact."""

    def tolerance(ctx, expected) -> Optional[float]:
        if ctx.compression != "fp16":
            return None
        return fp16_tolerance(expected, rounds(ctx))

    return tolerance


#: Per-app: (state key, oracle runner, tolerance).  Tolerance is a float,
#: ``None`` for exact comparison, or a callable ``(ctx, expected)`` that
#: picks one at verification time (the feature apps: exact unless the run
#: used the lossy fp16 wire compression).
_CHECKS = {
    "bfs": ("dist", lambda e, ctx: oracles.bfs_distances(e, ctx.source), None),
    "sssp": (
        "dist",
        lambda e, ctx: oracles.sssp_distances(e, ctx.source),
        None,
    ),
    "cc": ("label", lambda e, ctx: oracles.component_labels(e), None),
    "pr": (
        "rank",
        lambda e, ctx: oracles.pagerank_values(
            e, ctx.damping, ctx.tolerance, ctx.max_iterations
        ),
        1e-6,
    ),
    "pr-push": (
        "rank",
        lambda e, ctx: oracles.pagerank_values(
            e, ctx.damping, tolerance=1e-12, max_iterations=500
        ),
        1e-3,
    ),
    "kcore": (
        "alive",
        lambda e, ctx: oracles.kcore_membership(e, ctx.k),
        None,
    ),
    "bc": (
        "delta",
        lambda e, ctx: oracles.bc_dependencies(e, ctx.source),
        1e-6,
    ),
    "featprop": (
        "feat",
        lambda e, ctx: featprop_features(
            e, ctx.feature_dim, ctx.feature_rounds
        ),
        _feature_tolerance(lambda ctx: ctx.feature_rounds),
    ),
    "featprop-mean": (
        "feat",
        lambda e, ctx: featprop_features(
            e, ctx.feature_dim, ctx.feature_rounds, mean=True
        ),
        _feature_tolerance(lambda ctx: ctx.feature_rounds),
    ),
    # One-hot rows and small vote counts are exactly representable in
    # float16, so labelprop stays exact under every compression mode.
    "labelprop": (
        "label",
        lambda e, ctx: labelprop_labels(
            e, ctx.feature_dim, ctx.feature_rounds
        ),
        None,
    ),
    "sage": (
        "hidden",
        lambda e, ctx: sage_hidden(e, ctx.feature_dim),
        _feature_tolerance(lambda ctx: 1),
    ),
}


def output_key(app_name: str) -> Optional[str]:
    """The state-field name holding an application's answer.

    The same key :func:`verify_run` compares against the oracle — used by
    the job service to gather, digest, and cache a run's output.  Returns
    ``None`` for applications with no registered oracle field.
    """
    check = _CHECKS.get(base_app_name(app_name))
    return check[0] if check is not None else None


def verify_run(
    result: RunResult,
    edges: EdgeList,
    raise_on_mismatch: bool = True,
) -> Verification:
    """Check a :func:`repro.systems.run_app` result against its oracle.

    Args:
        result: a run result carrying its executor (as ``run_app`` returns).
        edges: the *original* input graph handed to ``run_app`` (the
            verifier re-applies the app's input preparation itself).
        raise_on_mismatch: raise :class:`VerificationError` instead of
            returning a failed :class:`Verification`.
    """
    executor = getattr(result, "executor", None)
    if executor is None:
        raise VerificationError(
            "result carries no executor; verify_run needs the object "
            "returned by run_app"
        )
    # ``<app>@optimized`` verifies against the bare app's oracle — same
    # answer, same field, same tolerance.
    oracle_app = base_app_name(result.app)
    if oracle_app not in _CHECKS:
        raise VerificationError(f"no oracle for application {result.app!r}")
    key, runner, tolerance = _CHECKS[oracle_app]
    # Only the prepared *edges* are needed: the oracle reads every
    # parameter off the run's own context.
    prepared = prepare_input(result.app, edges, source=executor.ctx.source)
    expected = runner(prepared.edges, executor.ctx)
    got = executor.app.gather_master_values(
        executor.partitioned.partitions, executor.states, key
    )
    if callable(tolerance):
        tolerance = tolerance(executor.ctx, expected)
    if np.shape(got) != np.shape(expected):
        outcome = Verification(
            app=result.app,
            matched=False,
            max_abs_error=float("inf"),
            detail=f"shape mismatch: {np.shape(got)} vs {np.shape(expected)}",
        )
    elif tolerance is None:
        if got.ndim == 1 and np.issubdtype(got.dtype, np.integer):
            # Unsigned saturation values (bfs/sssp "infinity") compare
            # correctly only as uint64.
            matched = bool(
                np.array_equal(
                    got.astype(np.uint64), expected.astype(np.uint64)
                )
            )
        else:
            matched = bool(np.array_equal(got, expected))
        max_err = (
            0.0
            if matched
            else float(
                np.abs(
                    got.astype(np.float64) - expected.astype(np.float64)
                ).max()
            )
        )
        outcome = Verification(result.app, matched, max_err)
    else:
        errors = np.abs(got.astype(np.float64) - expected)
        max_err = float(errors.max()) if len(errors) else 0.0
        outcome = Verification(result.app, max_err <= tolerance, max_err)
    if raise_on_mismatch and not outcome.matched:
        raise VerificationError(
            f"{result.app} on {result.system} diverged from the oracle "
            f"(max |error| = {outcome.max_abs_error}) {outcome.detail}"
        )
    return outcome
