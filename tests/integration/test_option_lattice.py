"""The whole capability lattice, enumerated from the two tables (ROADMAP 3e).

Cells are derived from :class:`repro.options.JobSpec` (every option that
reaches ``plan_run``, at one non-default value) x runtime x {plain run,
streaming session} x app kind, plus the system x policy x hosts rows.
:func:`repro.options.refusal_for` gives the expected verdict of each:

* it names a row of :data:`repro.options.REFUSALS` — the entry point must
  raise ``ReproError`` with exactly that message and ``build_partition``
  must not have been called;
* or it is ``None`` — the cell must run and equal its baseline bitwise:
  the answer, ``rounds``, ``construction_bytes``, and ``comm_bytes`` /
  ``sim_time_s`` unless the option is *declared* wire-changing (a fault
  plan also frames the memoization exchange: ``construction_bytes``).  The
  baseline is the all-defaults run, except for a (non-wire) option that
  feeds ``prepare_input`` or the system's partitioner: it changes the
  problem instance or its layout, so its baseline is the plain simulated
  run of that instance.

A new option without a value below, or a cell that neither runs equal
nor is refused by the table, fails by name.
"""

import functools
from dataclasses import fields

import pytest

from repro.apps import make_app
from repro.core.optimization import OptimizationLevel
from repro.errors import JobSpecError, ReproError
from repro.graph.generators import rmat
from repro.options import PLAN_STAGES, JobSpec, refusal_for
from repro.parallel import rings, worker
from repro.runtime.executor import RUNTIMES
from repro.service.spec import values_digest
from repro.streaming import StreamingSession
from repro.systems import run_app
from repro.verify import output_key

HOSTS = 2
GRAPH = rmat(8, 8, 3).deduplicate()
APPS = ("bfs", "bfs@optimized", "featprop", "bc")

#: One non-default value per option (``runtime`` is an axis of its own).
VALUES = {
    "policy": "oec",
    "level": "oti",
    "source": 3,
    "max_rounds": 99_999,
    "weight_seed": 43,
    "partition_seed": 1,
    "tolerance": 1e-3,
    "max_iterations": 7,
    "k": 3,
    "inject_fault": "drop:0.05,dup:0.05",
    "fault_seed": 5,
    "checkpoint_every": 2,
    "recovery": "confined",
    "feature_dim": 16,
    "feature_rounds": 4,
    "compression": "fp16",
    "sanitize": True,
    "workers": 2,
}
OPTIONS = {
    f.name: f for f in fields(JobSpec)
    if f.metadata["feeds"] in PLAN_STAGES + ("resilience",) and f.name != "runtime"
}
CELLS = [
    pytest.param(app, option, runtime, streaming,
                 id=f"{app}-{option}-{runtime}-{'session' if streaming else 'run'}")
    for app in APPS
    for option in [None, *OPTIONS]
    for runtime in RUNTIMES
    for streaming in (False, True)
]


def test_every_option_has_a_lattice_value():
    assert set(VALUES) == set(OPTIONS), "give the new option a non-default value"
    for name, value in VALUES.items():
        assert value != OPTIONS[name].default, name


def keywords(option, runtime):
    """The ``plan_run`` keywords of one cell (string forms resolved)."""
    given = {"runtime": runtime}
    if option is None:
        return given
    value = VALUES[option]
    if OPTIONS[option].metadata["feeds"] == "resilience":
        alone = JobSpec(app="bfs", workload="rmat22s", hosts=HOSTS, **{option: value})
        given["resilience"] = alone.run_options()["resilience"]
    elif option == "level":
        given["level"] = OptimizationLevel.from_name(value)
    else:
        given[option] = value
    return given


@pytest.fixture()
def builds(monkeypatch):
    """Counts ``build_partition`` calls; bounds a process-runtime hang."""
    import repro.systems as systems

    calls = []
    real = systems.build_partition
    monkeypatch.setattr(
        systems, "build_partition", lambda *a, **kw: calls.append(a) or real(*a, **kw)
    )
    monkeypatch.setattr(
        worker, "RingTransport", functools.partial(rings.RingTransport, receive_timeout_s=20)
    )
    return calls


def execute(app, streaming, given):
    if streaming:
        session = StreamingSession("d-galois", app, GRAPH, HOSTS, **given)
        result, executor = session.run(), session.executor
    else:
        result = run_app("d-galois", app, GRAPH, HOSTS, **given)
        executor = result.executor
    return {
        "answer": values_digest(executor.gather_result(output_key(result.app))),
        "rounds": result.num_rounds,
        "construction_bytes": result.construction_bytes,
        "comm_bytes": result.communication_volume,
        "sim_time_s": result.total_time,
    }


@functools.lru_cache(maxsize=None)
def baseline(app, option):
    """The plain simulated run a cell is compared with."""
    return execute(app, False, keywords(option, "simulated"))


@pytest.mark.parametrize("app, option, runtime, streaming", CELLS)
def test_cell_runs_equal_or_is_refused_by_the_table(builds, app, option, runtime, streaming):
    given = keywords(option, runtime)
    verdict = refusal_for(
        system="d-galois", app=make_app(app), num_hosts=HOSTS, streaming=streaming, **given
    )
    if verdict is not None:
        with pytest.raises(ReproError) as refused:
            execute(app, streaming, given)
        assert str(refused.value) == verdict
        assert builds == [], "refused only after a partition was built"
        return
    cell = execute(app, streaming, given)
    meta = OPTIONS[option].metadata if option else {"feeds": None, "wire": False}
    own = meta["feeds"] in ("input", "system") and not meta["wire"]
    expected = baseline(app, option if own else None)
    exempt = ("comm_bytes", "sim_time_s") if meta["wire"] else ()
    if meta["wire"] and meta["feeds"] == "resilience":
        # A faulty fabric CRC-frames every message, the memoization exchange too.
        exempt += ("construction_bytes",)
    for quantity in expected:
        if quantity not in exempt:
            assert cell[quantity] == expected[quantity], quantity


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("option", sorted(OPTIONS))
def test_a_spec_is_refused_exactly_when_the_table_refuses(app, option):
    """``JobSpec(...)`` — what ``submit``, ``serve`` and the CLI build —
    gives the table's verdict at construction, for both runtimes."""
    for runtime in RUNTIMES:
        described = dict(app=app, workload="rmat22s", hosts=HOSTS, runtime=runtime)
        described[option] = VALUES[option]
        verdict = refusal_for(
            system="d-galois", app=make_app(app), num_hosts=HOSTS,
            **keywords(option, runtime),
        )
        if verdict is None:
            assert JobSpec(**described).run_options()["runtime"] == runtime
        else:
            with pytest.raises(JobSpecError) as refused:
                JobSpec(**described)
            assert str(refused.value) == verdict


#: The system x policy x hosts rows: (system, hosts, policy, streaming).
SYSTEM_ROWS = [
    ("galois", 2, None, False),
    ("ligra", 1, "oec", False),
    ("gemini", 2, "cvc", False),
    ("gemini", 2, None, True),
    ("gunrock", 8, None, False),
    ("gunrock", 2, "cvc", False),
]


@pytest.mark.parametrize("system, hosts, policy, streaming", SYSTEM_ROWS)
def test_system_rows(builds, system, hosts, policy, streaming):
    verdict = refusal_for(
        system=system, app=make_app("bfs"), num_hosts=hosts, policy=policy,
        streaming=streaming,
    )
    if verdict is None:  # gemini in a session: it runs, and equal to its plain run
        session = StreamingSession(system, "bfs", GRAPH, hosts, policy=policy)
        plain = run_app(system, "bfs", GRAPH, hosts, policy=policy)
        assert session.run().summary() == plain.summary()
        return
    with pytest.raises(ReproError) as refused:
        if streaming:
            StreamingSession(system, "bfs", GRAPH, hosts, policy=policy)
        else:
            run_app(system, "bfs", GRAPH, hosts, policy=policy)
    assert str(refused.value) == verdict and builds == []
