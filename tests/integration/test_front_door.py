"""Entry-point parity: one job description, four front doors, one answer.

``run_app``, ``StreamingSession(...).run()``, ``execute_job(JobSpec(...))``
and ``repro run --json`` all plan a run through
:func:`repro.systems.plan_run`; the same description must therefore give
the same rounds, bytes, messages, construction bytes, simulated time and
answer through each of them.  The three scalar cases are pinned to the
numbers recorded before the entry points shared a plan.
"""

import json

import pytest

from repro import cli
from repro.errors import ExecutionError
from repro.graph.generators import rmat
from repro.resilience import ResilienceConfig
from repro.service import JobSpec, execute_job
from repro.service.spec import values_digest
from repro.streaming import StreamingSession
from repro.systems import RunPlan, run_app
from repro.verify import output_key

HOSTS = 4

#: (app, policy, app parameters, CLI flags for them, recorded (rounds, comm_bytes)).
CASES = [
    ("bfs", "cvc", {}, [], (4, 1582)),
    ("pr", "oec", {}, [], (64, 203776)),
    ("cc", "hvc", {}, [], (3, 2366)),
    (
        "featprop", "iec",
        {"feature_dim": 16, "compression": "delta"},
        ["--feature-dim", "16", "--compression", "delta"],
        (3, 137437),
    ),
]


@pytest.fixture()
def graph(monkeypatch):
    """A duplicate-free rmat(8, 8, 3), also served as every named workload
    (the job service and the CLI only take workload names)."""
    edges = rmat(8, 8, 3).deduplicate()
    monkeypatch.setattr("repro.workloads.load_workload", lambda *_: edges)
    monkeypatch.setattr(cli, "load_workload", lambda *_: edges)
    return edges


def fingerprint(result, executor=None):
    executor = executor or result.executor
    answer = executor.gather_result(output_key(result.app))
    return {
        "rounds": result.num_rounds,
        "comm_bytes": result.communication_volume,
        "comm_messages": result.communication_messages,
        "construction_bytes": result.construction_bytes,
        "sim_time_s": result.total_time,
        "digest": values_digest(answer),
    }


@pytest.mark.parametrize(
    "app, policy, params, flags, recorded", CASES, ids=[c[0] for c in CASES]
)
def test_every_entry_point_runs_the_same_job(
    graph, monkeypatch, capsys, app, policy, params, flags, recorded
):
    direct = fingerprint(
        run_app("d-galois", app, graph, HOSTS, policy=policy, **params)
    )
    assert (direct["rounds"], direct["comm_bytes"]) == recorded

    session = StreamingSession(
        "d-galois", app, graph, HOSTS, policy=policy, **params
    )
    assert fingerprint(session.run(), session.executor) == direct

    if not params:  # JobSpec has no feature fields
        job = execute_job(
            JobSpec(app=app, workload="rmat22s", hosts=HOSTS, policy=policy)
        )
        assert job.status == "ok", job.error
        assert {
            "rounds": job.rounds,
            "comm_bytes": job.comm_bytes,
            "construction_bytes": job.construction_bytes,
            "sim_time_s": job.sim_time_s,
            "digest": job.output_digest,
        } == {k: v for k, v in direct.items() if k != "comm_messages"}

    # The CLI prints no answer; catch the result its plan's run returns.
    seen = []
    run_plan = RunPlan.run
    monkeypatch.setattr(
        RunPlan, "run", lambda *a, **kw: seen.append(run_plan(*a, **kw)) or seen[-1]
    )
    argv = [
        "run", "--system", "d-galois", "--app", app, "--workload", "rmat22s",
        "--hosts", str(HOSTS), "--policy", policy, "--json", *flags,
    ]
    assert cli.main(argv) == 0
    document = json.loads(capsys.readouterr().out)
    assert fingerprint(seen[0]) == direct
    assert document["summary"]["rounds"] == direct["rounds"]
    assert document["construction"]["bytes"] == direct["construction_bytes"]
    assert (
        sum(row["comm_bytes"] for row in document["rounds"])
        == direct["comm_bytes"]
    )


@pytest.mark.parametrize(
    "option, value",
    [
        ("runtime", "process"),
        ("workers", 2),
        ("sanitize", True),
        ("resilience", ResilienceConfig(checkpoint_every=2)),
    ],
)
def test_session_names_what_it_cannot_honour(graph, option, value):
    with pytest.raises(ExecutionError, match=option):
        StreamingSession("d-galois", "bfs", graph, HOSTS, **{option: value})


def test_session_accepts_the_defaults_of_unsupported_options(graph):
    # What JobSpec.run_options() hands over for a plain job.
    session = StreamingSession(
        "d-galois", "bfs", graph, HOSTS,
        resilience=None, runtime="simulated", workers=None, sanitize=False,
    )
    assert session.run().converged


def test_content_hashes_are_the_recorded_ones():
    """``run_options()`` replaced two adapters; the field set — and so
    every cached result's key — must not have moved."""
    specs = [
        JobSpec(app="bfs", workload="rmat22s"),
        JobSpec(
            app="pr", workload="rmat24s", hosts=8, system="d-ligra",
            policy="cvc", level="oti", scale_delta=-3, source=5,
            max_rounds=500, weight_seed=7, partition_seed=3, tolerance=1e-9,
            max_iterations=40, k=3, priority=9, max_attempts=4,
        ),
        JobSpec(
            app="sssp@optimized", workload="kron25s", hosts=2, policy="oec",
            inject_fault="crash:1@3,drop:0.02", fault_seed=11,
            checkpoint_every=2, recovery="confined",
        ),
    ]
    assert [spec.content_hash() for spec in specs] == [
        "93b18ef75fa305d2608dd37148441654d82af019ea4c9f6871a244bbcbc221cd",
        "a82dfd80251c94bd77fc74bd24c84822fa426b8b872e2f2b6edea74345cf08c4",
        "6acda573551dbcf6077681b07604f110bdf2851fa9bf2d81fa8033529a86afd0",
    ]


def test_run_options_are_run_app_keywords():
    import inspect

    spec = JobSpec(
        app="bfs", workload="rmat22s", level="oti",
        inject_fault="crash:1@3", checkpoint_every=2,
    )
    options = spec.run_options()
    assert set(options) <= set(inspect.signature(run_app).parameters)
    assert options["level"].value == "oti"
    assert options["resilience"].checkpoint_every == 2
    assert JobSpec(app="bfs", workload="rmat22s").run_options()["resilience"] is None
