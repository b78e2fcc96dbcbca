"""Entry-point parity: one job description, four front doors, one answer.

``run_app``, ``StreamingSession(...).run()``, ``execute_job(JobSpec(...))``
and ``repro run --json`` all plan a run through
:func:`repro.systems.plan_run`; the same description must therefore give
the same rounds, bytes, messages, construction bytes, simulated time and
answer through each of them.  The three scalar cases are pinned to the
numbers recorded before the entry points shared a plan.
"""

import json
from dataclasses import fields

import numpy as np
import pytest

from repro import cli
from repro.core.sync_structures import ADD, FieldSpec
from repro.errors import ExecutionError, JobSpecError, SyncError
from repro.graph.generators import rmat
from repro.options import PLAN_KEYWORDS
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
        (3, 135743),
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

    job = execute_job(
        JobSpec(app=app, workload="rmat22s", hosts=HOSTS, policy=policy, **params)
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
    spec = JobSpec(
        app="bfs", workload="rmat22s", level="oti",
        inject_fault="crash:1@3", checkpoint_every=2,
    )
    options = spec.run_options()
    assert set(options) == set(PLAN_KEYWORDS)
    assert options["level"].value == "oti"
    assert options["resilience"].checkpoint_every == 2
    assert JobSpec(app="bfs", workload="rmat22s").run_options()["resilience"] is None


# -- every door names every option (ISSUE 22) ---------------------------------------

#: A job only ``repro run`` could name before the option table.
WIDE_JOB = {
    "app": "featprop", "workload": "rmat22s", "hosts": HOSTS, "policy": "iec",
    "feature_dim": 16, "feature_rounds": 4, "compression": "delta",
}
WIDE_FLAGS = [
    "--app", "featprop", "--workload", "rmat22s", "--hosts", str(HOSTS), "--policy", "iec",
    "--feature-dim", "16", "--feature-rounds", "4", "--compression", "delta",
]
JOB_KEYS = ("rounds", "comm_bytes", "construction_bytes", "sim_time_s", "digest")


def job_fingerprint(document):
    assert document["status"] == "ok", document.get("error")
    return {**{key: document[key] for key in JOB_KEYS[:-1]}, "digest": document["output_digest"]}


@pytest.mark.parametrize(
    "placement, flags",
    [
        ({}, []),
        ({"runtime": "process", "workers": 2}, ["--runtime", "process", "--workers", "2"]),
    ],
    ids=["simulated", "process"],
)
def test_every_door_runs_the_same_wide_job(graph, monkeypatch, capsys, tmp_path, placement, flags):
    options = {k: v for k, v in WIDE_JOB.items() if k not in ("app", "workload", "hosts")}
    direct = fingerprint(run_app("d-galois", "featprop", graph, HOSTS, **options, **placement))
    expected = {key: direct[key] for key in JOB_KEYS}

    # The CLI prints no answer: fingerprint each plan's run as it returns
    # (a session's executor moves on to the next graph version afterwards).
    seen = []
    run_plan = RunPlan.run

    def fingerprinted(*args, **kwargs):
        result = run_plan(*args, **kwargs)
        seen.append(fingerprint(result))
        return result

    monkeypatch.setattr(RunPlan, "run", fingerprinted)
    doors = [["run", "--system", "d-galois", "--json"]]
    if not placement:  # a live session is simulated only
        doors.append(["mutate", "--generate", "1", "--json"])
    for door in doors:
        assert cli.main(door + WIDE_FLAGS + flags) == 0
        capsys.readouterr()
        assert seen == [direct], door[0]
        seen.clear()

    assert cli.main(["submit", "--json"] + WIDE_FLAGS + flags) == 0
    assert job_fingerprint(json.loads(capsys.readouterr().out)) == expected

    batch = tmp_path / "jobs.json"
    batch.write_text(json.dumps([{**WIDE_JOB, **placement}]))
    assert cli.main(["serve", str(batch), "--json"]) == 0
    (served,) = json.loads(capsys.readouterr().out)["results"]
    assert job_fingerprint(served) == expected
    assert served["spec_hash"] == JobSpec(**WIDE_JOB).content_hash()


def test_placement_never_enters_the_hash_and_new_options_only_when_set():
    plain = JobSpec(app="featprop", workload="rmat22s")
    # A spec naming the default compression hashes like one that does not.
    named = JobSpec(app="featprop", workload="rmat22s", compression="delta")
    assert named.content_hash() == plain.content_hash()
    placed = JobSpec(app="featprop", workload="rmat22s", runtime="process", workers=2)
    assert placed.content_hash() == plain.content_hash()
    for option, value in [
        ("feature_dim", 16), ("feature_rounds", 4), ("compression", "fp16"),
        ("sanitize", True),
    ]:
        changed = JobSpec(app="featprop", workload="rmat22s", **{option: value})
        assert changed.content_hash() != plain.content_hash(), option
        assert option not in plain.hashed_dict()


def test_a_spec_with_every_option_set_round_trips():
    spec = JobSpec(
        app="featprop", workload="kron25s", hosts=2, system="d-ligra", policy="hvc",
        level="oti", scale_delta=-3, source=5, max_rounds=500, weight_seed=7,
        partition_seed=3, tolerance=1e-9, max_iterations=40, k=3,
        inject_fault="drop:0.02", fault_seed=11, checkpoint_every=2,
        recovery="confined", feature_dim=16, feature_rounds=4, compression="fp16",
        sanitize=True, runtime="simulated", workers=None, priority=9, max_attempts=4,
    )
    unset = [f.name for f in fields(JobSpec) if getattr(spec, f.name) == f.default]
    assert unset == ["runtime", "workers"]  # placement: covered with --runtime process below
    assert JobSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec
    placed = JobSpec(app="bfs", workload="rmat22s", runtime="process", workers=2)
    assert JobSpec.from_dict(placed.to_dict()) == placed


def test_options_are_declared_once():
    """Fields == generated flags == the keywords ``plan_run`` takes (modulo
    the resolved forms), and the lower layers' own defaults agree."""
    import inspect

    from repro.options import PLAN_KEYWORDS, PLAN_STAGES
    from repro.runtime.executor import DistributedExecutor
    from repro.systems import prepare_input

    parser = cli.build_parser()
    commands = parser._subparsers._group_actions[0].choices
    names = [f.name for f in fields(JobSpec)]
    dests = {
        command: {
            action.dest.removeprefix("no_")
            for action in commands[command]._actions
            if action.dest.removeprefix("no_") in names
        }
        for command in ("run", "mutate", "submit")
    }
    # The only per-command exceptions:
    assert dests["submit"] == set(names)
    assert dests["run"] == dests["mutate"] == set(names) - {"priority", "max_attempts"}
    required = {
        command: {a.dest for a in commands[command]._actions if a.required} & set(names)
        for command in dests
    }
    assert required["run"] == {"app", "workload", "system"}
    assert required["mutate"] == required["submit"] == {"app", "workload"}

    by_stage = {
        stage: {f.name for f in fields(JobSpec) if f.metadata["feeds"] == stage}
        for stage in PLAN_STAGES + ("job", "resilience", "scheduler")
    }
    assert set().union(*by_stage.values()) == set(names)
    assert by_stage["job"] == {"app", "workload", "scale_delta", "system", "hosts"}
    assert by_stage["scheduler"] == {"priority", "max_attempts"}
    keywords = set(names) - by_stage["job"] - by_stage["scheduler"]
    assert set(PLAN_KEYWORDS) == keywords - by_stage["resilience"] | {"resilience"}
    assert set(JobSpec(app="bfs", workload="rmat22s").run_options()) == set(PLAN_KEYWORDS)

    defaults = {f.name: f.default for f in fields(JobSpec)}
    prepare = inspect.signature(prepare_input).parameters
    assert set(prepare) - {"app_name", "edges"} == by_stage["input"]
    executor = inspect.signature(DistributedExecutor.__init__).parameters
    assert by_stage["executor"] | {"resilience"} <= set(executor)
    for name in by_stage["input"] | by_stage["executor"]:
        assert (prepare.get(name) or executor[name]).default == defaults[name], name
    with pytest.raises(TypeError, match="unknown run option.*polcy"):
        run_app("d-galois", "bfs", rmat(4, 4, 1), 1, polcy="oec")


def test_the_removed_aggregation_ablation_fails_by_name_at_every_door(capsys):
    """The per-field wire is derived from a traced run now
    (``repro experiment aggregation``); its old option is refused by name."""
    with pytest.raises(SystemExit) as exit_info:
        cli.main([
            "run", "--system", "d-galois", "--app", "bfs", "--workload", "rmat22s",
            "--no-aggregation",
        ])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --no-aggregation" in capsys.readouterr().err
    with pytest.raises(JobSpecError, match=r"unknown job field\(s\): aggregate_comm"):
        JobSpec.from_dict({"app": "bfs", "workload": "rmat22s", "aggregate_comm": False})
    with pytest.raises(TypeError, match=r"unknown run option\(s\): aggregate_comm"):
        run_app("d-galois", "bfs", rmat(4, 4, 1), 1, aggregate_comm=False)


@pytest.mark.parametrize("app, value", [("featprop", "none"), ("bfs", "none"), ("bfs", "zip")])
def test_the_removed_rows_only_compression_fails_by_name_at_every_door(capsys, app, value):
    """The lossless wire picks rows or delta per message itself, so
    ``compression`` keeps ``delta`` (the default) and ``fp16``: the old
    rows-only ``none``, like any undeclared value, is refused by name at
    every door — for a scalar app too, whose fields never reach the codec."""
    with pytest.raises(SystemExit) as exit_info:
        cli.main([
            "run", "--system", "d-galois", "--app", app, "--workload", "rmat22s",
            "--compression", value,
        ])
    assert exit_info.value.code == 2
    assert f"argument --compression: invalid choice: '{value}'" in capsys.readouterr().err
    known = rf"unknown compression '{value}' \(known: delta, fp16\)"
    with pytest.raises(JobSpecError, match=known):
        JobSpec.from_dict({"app": app, "workload": "rmat22s", "compression": value})
    with pytest.raises(ExecutionError, match=known):
        run_app("d-galois", app, rmat(4, 4, 1), 2, compression=value)
    with pytest.raises(SyncError, match=r"\(expected one of \('delta', 'fp16'\)\)"):
        FieldSpec("rows", np.zeros((4, 2)), ADD, compression=value)


def test_a_level_named_as_a_string_runs_the_same_job_at_every_door(graph, monkeypatch, capsys):
    """``level`` is declared as its string form: ``run_app`` resolves it
    exactly as ``JobSpec.run_options`` does, so ``"osi"`` equals the
    enum at the library door, the job service and the CLI."""
    from repro.core.optimization import OptimizationLevel

    by_enum = fingerprint(
        run_app("d-galois", "bfs", graph, HOSTS, policy="cvc", level=OptimizationLevel.OSI)
    )
    direct = fingerprint(run_app("d-galois", "bfs", graph, HOSTS, policy="cvc", level="osi"))
    assert direct == by_enum
    assert direct != fingerprint(run_app("d-galois", "bfs", graph, HOSTS, policy="cvc"))

    job = execute_job(
        JobSpec(app="bfs", workload="rmat22s", hosts=HOSTS, policy="cvc", level="osi")
    )
    assert job.status == "ok", job.error
    assert (job.rounds, job.comm_bytes, job.sim_time_s, job.output_digest) == (
        direct["rounds"], direct["comm_bytes"], direct["sim_time_s"], direct["digest"],
    )

    seen = []
    run_plan = RunPlan.run
    monkeypatch.setattr(
        RunPlan, "run", lambda *a, **kw: seen.append(run_plan(*a, **kw)) or seen[-1]
    )
    argv = [
        "run", "--system", "d-galois", "--app", "bfs", "--workload", "rmat22s",
        "--hosts", str(HOSTS), "--policy", "cvc", "--level", "osi", "--json",
    ]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert fingerprint(seen[0]) == direct


def test_an_unknown_level_is_refused_by_name_at_every_door(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([
            "run", "--system", "d-galois", "--app", "bfs", "--workload", "rmat22s",
            "--level", "fast",
        ])
    assert exit_info.value.code == 2
    assert "argument --level: invalid choice: 'fast'" in capsys.readouterr().err
    known = r"unknown optimization level 'fast' \(known: unopt, osi, oti, osti\)"
    with pytest.raises(JobSpecError, match=known):
        JobSpec.from_dict({"app": "bfs", "workload": "rmat22s", "level": "fast"})
    with pytest.raises(ExecutionError, match=known):
        run_app("d-galois", "bfs", rmat(4, 4, 1), 2, level="fast")


def test_a_result_cached_by_the_parent_commit_is_still_a_hit(graph, tmp_path, capsys):
    """The cache key of a spec the parent could express has not moved: an
    entry written under the parent's hash (all of its 20 fields minus the
    scheduling pair, canonical JSON) is served to the same batch file."""
    import hashlib

    from repro.service import JobResult, ServiceCache

    parent_spec = {
        "app": "bfs", "workload": "rmat22s", "hosts": HOSTS, "system": "d-galois",
        "policy": "cvc", "level": None, "scale_delta": 0, "source": None,
        "max_rounds": 100_000, "weight_seed": 42, "partition_seed": 0,
        "tolerance": 1e-6, "max_iterations": 100, "k": 2, "inject_fault": None,
        "fault_seed": 0, "checkpoint_every": 0, "recovery": "restart",
        "priority": 0, "max_attempts": 1,
    }
    hashed = {k: v for k, v in parent_spec.items() if k not in ("priority", "max_attempts")}
    parent_hash = hashlib.sha256(
        json.dumps(hashed, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    answer = run_app("d-galois", "bfs", graph, HOSTS, policy="cvc").executor.gather_result("dist")
    ServiceCache(directory=str(tmp_path / "cache")).put_result(
        parent_hash,
        JobResult(
            job_id=parent_hash[:12], spec_hash=parent_hash, spec=parent_spec, rounds=4,
            output_key="dist", output_digest=values_digest(answer), values=answer,
        ),
    )
    batch = tmp_path / "jobs.json"
    batch.write_text(json.dumps([{"app": "bfs", "workload": "rmat22s", "policy": "cvc"}]))
    argv = ["serve", str(batch), "--cache-dir", str(tmp_path / "cache"), "--json"]
    assert cli.main(argv) == 0
    (served,) = json.loads(capsys.readouterr().out)["results"]
    assert served["result_cache"] == "hit" and served["spec_hash"] == parent_hash
