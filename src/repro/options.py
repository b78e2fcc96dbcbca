"""Every run-time choice, declared once: the option table and the refusal table.

Gluon's usability claim (§3.3) is that engine, partition policy and
optimization level are *run-time choices* independent of the application
— a flag, not code.  This module is where the choices are written down:

* :class:`JobSpec` is the **option table**: each field is declared with
  :func:`option` — name (= ``run_app`` / ``plan_run`` keyword = argparse
  dest), type, default, flag spelling, choices or lower bound, help text,
  the stage of :func:`repro.systems.plan_run` that consumes it, and how it
  enters the content hash.  The ``run`` / ``mutate`` / ``submit`` flags
  (:func:`add_job_flags`), the spec's validation, ``from_dict``'s known
  keys and the keywords ``plan_run`` accepts (:func:`plan_options`) are
  generated from those declarations.
* :data:`REFUSALS` is the **refusal table**: every combination that is
  refused, the context it applies in and the message the user gets.
  :func:`check_refusals` is its one enforcer — called by ``JobSpec(...)``,
  ``plan_run``, ``StreamingSession`` and ``DistributedExecutor`` — so every
  entry point gives the same verdict, before any partition is built.

DESIGN.md's two tables are :func:`option_table` and :func:`refusal_table`,
verbatim (``tests/test_options_docs.py`` compares them).
"""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import MISSING, dataclass, field, fields
from types import SimpleNamespace
from typing import Callable, Dict, NamedTuple, Optional

from repro.apps import runnable_app_names
from repro.core.optimization import OptimizationLevel
from repro.core.sync_structures import COMPRESSION_MODES
from repro.errors import ExecutionError, FaultPlanError, JobSpecError
from repro.partition import PARTITIONER_BY_NAME
from repro.resilience import RECOVERY_MODES, FaultPlan, ResilienceConfig
from repro.runtime.executor import RUNTIMES
from repro.workloads import WORKLOAD_NAMES

GLUON_SYSTEMS = ("d-galois", "d-ligra", "d-irgl", "d-hybrid")
SHARED_MEMORY_SYSTEMS = ("galois", "ligra", "irgl")
BASELINE_SYSTEMS = ("gemini", "gunrock")
ALL_SYSTEMS = GLUON_SYSTEMS + SHARED_MEMORY_SYSTEMS + BASELINE_SYSTEMS

#: Number of GPUs per physical node on the Bridges-like platform (§5.1).
GPUS_PER_NODE = 4

#: The stages of ``plan_run`` an option can feed.  The other ``feeds``
#: values: "job" (``plan_run``'s positional arguments: system, app, the
#: workload's edges, hosts), "resilience" (:meth:`JobSpec.run_options`
#: folds those fields into the executor stage's one ``resilience``
#: keyword) and "scheduler" (the service only).
PLAN_STAGES = ("system", "input", "executor", "run")

_OPTION_DEFAULTS = dict(
    flag=None, choices=None, label=None, minimum=None, flag_minimum=None, metavar=None,
    parse=None, resolve=None, hashed="always", only=None, wire=False,
)


def option(default=MISSING, *, feeds: str, help: str, **declared):
    """Declare one job option (a :class:`JobSpec` field).

    ``flag`` defaults to ``--<name-with-dashes>`` (a bool option is off
    until its flag); ``choices`` may be a callable; ``label`` names the
    option in errors; ``minimum`` bounds the stored value and
    ``flag_minimum`` (default: ``minimum``) the command-line one;
    ``parse`` turns the flag's text into the stored value and
    ``resolve`` the stored string into the object ``plan_run`` takes.
    ``hashed``: "always", "non-default" (in the content hash only when it
    differs from the default — for options added after results were first
    cached) or "never" (cannot change a payload).  ``only`` names the one
    subcommand that has the flag; ``wire`` marks an option that changes
    the wire shape, so ``comm_bytes`` / ``sim_time_s`` may move with it.
    """
    unknown = set(declared) - set(_OPTION_DEFAULTS)
    if unknown:
        raise TypeError(f"option() got unknown declaration(s) {sorted(unknown)}")
    metadata = {**_OPTION_DEFAULTS, **declared, "feeds": feeds, "help": help}
    return field(default=default, metadata=metadata)


def _attempts(retries: str) -> int:
    """``--retries N`` is stored as ``max_attempts = N + 1``."""
    if int(retries) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {retries}")
    return int(retries) + 1


@dataclass(frozen=True)
class JobSpec:
    """One analytics job — app x graph x policy x hosts x config — and the
    declaration of every job option.

    Plain data (``level`` and the resilience fields in their CLI string
    forms, so specs stay JSON-serializable) that :meth:`run_options`
    turns into :func:`repro.systems.run_app` keywords.  Its
    :meth:`content_hash` is a SHA-256 over a canonical JSON encoding, so
    two processes (or machines, or weeks) agree on whether two jobs are
    the same work; options that steer *when* or *where* a job runs, never
    *what* it computes, are excluded so they cannot fragment the result
    cache.  Construction validates every value and every combination
    (:data:`REFUSALS`): a spec that exists can be planned.
    """

    # -- the job: plan_run's positional arguments, policy and level --------
    app: str = option(
        feeds="job", choices=runnable_app_names,
        help="application to run (a built-in name, or <name>@optimized)",
    )
    workload: str = option(
        feeds="job", choices=lambda: sorted(WORKLOAD_NAMES),
        help="input graph, by its Table 1 stand-in name",
    )
    hosts: int = option(4, feeds="job", minimum=1, help="simulated hosts (default: {default})")
    system: str = option(
        "d-galois", feeds="job", choices=sorted(ALL_SYSTEMS),
        help="engine + partitioner + sync bundle of §5 (default: {default}; required on run)",
    )
    policy: Optional[str] = option(
        None, feeds="system", choices=sorted(PARTITIONER_BY_NAME),
        help="partition policy (default: the system's own)",
    )
    level: Optional[str] = option(
        None, feeds="system", wire=True, label="optimization level",
        choices=[lv.value for lv in OptimizationLevel], resolve=OptimizationLevel.from_name,
        help="communication-optimization level (default: system's own)",
    )
    scale_delta: int = option(
        0, feeds="job", help="shift the workload generator scale (negative = smaller)"
    )
    # -- application parameters --------------------------------------------
    source: Optional[int] = option(
        None, feeds="input", metavar="NODE",
        help="bfs/sssp/bc source (default: the maximum out-degree node, §5.1)",
    )
    max_rounds: int = option(
        100_000, feeds="run", minimum=1, metavar="N",
        help="stop after N BSP rounds even if not converged (default: {default})",
    )
    weight_seed: int = option(
        42, feeds="input", help="seed of the edge weights a weighted app adds (default: {default})"
    )
    partition_seed: int = option(
        0, feeds="system", help="seed of the 'random' partition policy (default: {default})"
    )
    tolerance: float = option(
        1e-6, feeds="input", help="pr: residual convergence threshold (default: {default})"
    )
    max_iterations: int = option(
        100, feeds="input", metavar="N", help="pr: iteration cap (default: {default})"
    )
    k: int = option(2, feeds="input", help="kcore: the core number k (default: {default})")
    # -- resilience (the job runs failable when any of these are set) ------
    inject_fault: Optional[str] = option(
        None, feeds="resilience", wire=True, metavar="SPEC",
        help="fault plan, e.g. 'crash:1@3' or 'crash:0@2,drop:0.01,corrupt:0.005,dup:0.01'",
    )
    fault_seed: int = option(
        0, feeds="resilience", help="seed for the transient-fault RNG (default: {default})"
    )
    checkpoint_every: int = option(
        0, feeds="resilience", minimum=0, flag_minimum=1, metavar="N",
        help="snapshot executor state every N rounds (N >= 1)",
    )
    recovery: str = option(
        "restart", feeds="resilience", choices=RECOVERY_MODES,
        help="crash recovery protocol (default: {default})",
    )
    # -- feature workloads and the wire (hashed only when set) -------------
    feature_dim: int = option(
        8, feeds="input", hashed="non-default", metavar="D",
        help="feature apps: columns per vertex row — the feature width, "
        "or the class count for labelprop (default: {default})",
    )
    feature_rounds: int = option(
        3, feeds="input", hashed="non-default", metavar="N",
        help="feature apps: aggregation rounds to run (default: {default})",
    )
    compression: str = option(
        "delta", feeds="input", hashed="non-default", wire=True,
        choices=sorted(COMPRESSION_MODES),
        help="wide-payload wire compression for feature apps: 'delta' (lossless: each "
        "message ships whole rows or only the changed row columns, whichever is fewer "
        "bytes; default) or 'fp16' (lossy float16 quantization with a documented error "
        "bound; small magnitudes only — a value past the float16 range is a SyncError)",
    )
    sanitize: bool = option(
        False, feeds="executor", hashed="non-default",
        help="debug mode: audit every endpoint-indexed field access against the declared "
        "sync contract (results stay bitwise identical; violations are reported and "
        "exit non-zero)",
    )
    # -- where it runs (bitwise identical either way: never hashed) --------
    runtime: str = option(
        "simulated", feeds="executor", hashed="never", choices=RUNTIMES,
        help="round-execution backend: 'simulated' runs every host in-process (default); "
        "'process' runs hosts in forked worker processes that inherit their partitions "
        "(bitwise-identical results, adds a measured wall-clock column; simulated-only "
        "features: {simulated_only})",
    )
    workers: Optional[int] = option(
        None, feeds="executor", hashed="never", minimum=1, metavar="N",
        help="worker processes for --runtime process (default: min(hosts, cpu count))",
    )
    # -- scheduling only (excluded from the content hash) ------------------
    priority: int = option(
        0, feeds="scheduler", hashed="never", only="submit", help="scheduling priority"
    )
    max_attempts: int = option(
        1, feeds="scheduler", hashed="never", only="submit", minimum=1,
        flag="--retries", parse=_attempts, metavar="N",
        help="retry a failed job up to N times with backoff (default: 0)",
    )

    def __post_init__(self) -> None:
        for spec_field in fields(self):
            value, meta = getattr(self, spec_field.name), spec_field.metadata
            if value is None and spec_field.default is None:
                continue
            _check_choice(spec_field, value, JobSpecError)
            if meta["minimum"] is not None and value < meta["minimum"]:
                raise JobSpecError(
                    f"{spec_field.name} must be >= {meta['minimum']}, got {value}"
                )
        try:
            check_refusals(system=self.system, num_hosts=self.hosts, **self.run_options())
        except FaultPlanError as exc:
            raise JobSpecError(f"inject_fault: {exc}") from exc
        except ExecutionError as exc:
            raise JobSpecError(str(exc)) from exc

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-safe dict of every field (batch-file round-trippable)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Dict) -> "JobSpec":
        """Build a spec from a (batch-file) dict; unknown keys are errors."""
        if not isinstance(payload, dict):
            raise JobSpecError(
                f"job entry must be an object, got {type(payload).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise JobSpecError(
                f"unknown job field(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        missing = [
            f.name for f in fields(cls) if f.default is MISSING and f.name not in payload
        ]
        if missing:
            raise JobSpecError(
                f"job entry is missing required field(s): {', '.join(missing)}"
            )
        return cls(**payload)

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "JobSpec":
        """The job a subcommand's generated flags (:func:`add_job_flags`) name.

        Flags default to absent, so only what the user gave is passed on;
        a value under its flag's lower bound is refused by flag name.
        """
        given = {}
        for spec_field in fields(cls):
            name, meta = spec_field.name, spec_field.metadata
            if hasattr(args, name):
                given[name] = getattr(args, name)
                low = meta["minimum"] if meta["flag_minimum"] is None else meta["flag_minimum"]
                if low is not None and meta["parse"] is None and given[name] < low:
                    raise JobSpecError(
                        f"{_flag(spec_field)} must be at least {low}, got {given[name]}"
                    )
        return cls(**given)

    # -- identity ----------------------------------------------------------

    def hashed_dict(self) -> Dict:
        """The canonical sub-dict the content hash covers."""
        payload = {}
        for spec_field in fields(self):
            value, how = getattr(self, spec_field.name), spec_field.metadata["hashed"]
            if how == "always" or (how == "non-default" and value != spec_field.default):
                payload[spec_field.name] = value
        return payload

    def content_hash(self) -> str:
        """Deterministic SHA-256 identity of the work this spec describes.

        Stable across processes (no reliance on the builtin ``hash``) and
        insensitive to scheduling and placement fields; the result
        cache's key.
        """
        canonical = json.dumps(
            self.hashed_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()

    @property
    def job_id(self) -> str:
        """Short human-facing id (content-hash prefix)."""
        return self.content_hash()[:12]

    # -- run_app adapter ---------------------------------------------------

    def run_options(self, checkpoint_dir: Optional[str] = None) -> Dict:
        """The spec as :func:`repro.systems.run_app` keywords.

        Everything after ``(system, app, edges, hosts)``: the string forms
        resolved (``level`` to its :class:`OptimizationLevel`, the
        resilience fields to a :class:`ResilienceConfig` — ``None`` for a
        plain run).  Every consumer of a spec — a job attempt, batch
        staging, the CLI — unpacks this one dict; it is the only place a
        fault plan is parsed, so an empty plan or a crash clause naming a
        host the cluster does not have is one :class:`FaultPlanError`
        everywhere.  ``checkpoint_dir`` (a deployment path, not a job
        option) stores the run's snapshots on disk; a run without
        resilience takes none, so there it is ignored.
        """
        # Every plan keyword; ``resilience`` (no field of its own) starts as None.
        options = _resolve_declared(
            {name: getattr(self, name, None) for name in PLAN_KEYWORDS}, JobSpecError
        )
        plan = None
        if self.inject_fault is not None:
            plan = FaultPlan.parse(self.inject_fault, seed=self.fault_seed)
            plan.validate_hosts(self.hosts)
            if plan.is_empty:
                raise FaultPlanError(
                    f"spec {self.inject_fault!r} injects no faults (expected "
                    "crash:HOST@ROUND, drop:RATE, corrupt:RATE, or dup:RATE clauses)"
                )
        if plan is not None or self.checkpoint_every > 0:
            options["resilience"] = ResilienceConfig(
                plan=plan, checkpoint_every=self.checkpoint_every,
                recovery=self.recovery, checkpoint_dir=checkpoint_dir,
            )
        return options


def _choices(meta):
    known = meta["choices"]
    return list(known()) if callable(known) else known


def _check_choice(spec_field, value, error) -> None:
    """Refuse ``value`` by name unless the field's declared choices hold it."""
    known = _choices(spec_field.metadata)
    if known is not None and value not in known:
        raise error(
            f"unknown {spec_field.metadata['label'] or spec_field.name} {value!r} "
            f"(known: {', '.join(known)})"
        )


def _resolve_declared(options: Dict, error) -> Dict:
    """``options`` with each value given in its declared string form
    checked against the option's choices (refused by name with ``error``)
    and resolved to the object ``plan_run`` takes (``resolve=``)."""
    for spec_field in fields(JobSpec):
        value = options.get(spec_field.name)
        if isinstance(value, str):
            _check_choice(spec_field, value, error)
            if spec_field.metadata["resolve"] is not None:
                options[spec_field.name] = spec_field.metadata["resolve"](value)
    return options


def _flag(spec_field) -> str:
    return spec_field.metadata["flag"] or "--" + spec_field.name.replace("_", "-")


def add_job_flags(cmd: argparse.ArgumentParser, command: str) -> None:
    """Generate ``command``'s job flags (``run`` / ``mutate`` / ``submit``).

    One flag per :class:`JobSpec` field, dest = field name, absent from
    the namespace unless given (:meth:`JobSpec.from_args` reads it back).
    The per-command differences: ``--system`` is required on ``run``, and
    an option declared ``only=`` exists on that command alone.
    """
    simulated_only = [row.feature for row in REFUSALS if row.context == "process runtime"]
    for spec_field in fields(JobSpec):
        meta = spec_field.metadata
        if meta["only"] not in (None, command):
            continue
        text = meta["help"].format(
            default=spec_field.default, simulated_only=", ".join(simulated_only)
        )
        keywords = dict(dest=spec_field.name, default=argparse.SUPPRESS, help=text)
        if isinstance(spec_field.default, bool):
            keywords["action"] = "store_true"
        else:
            stored = spec_field.type.replace("Optional[", "").rstrip("]")
            keywords.update(
                type=meta["parse"] or {"int": int, "float": float, "str": str}[stored],
                choices=_choices(meta), metavar=meta["metavar"],
                required=spec_field.default is MISSING
                or (spec_field.name == "system" and command == "run"),
            )
        cmd.add_argument(_flag(spec_field), **keywords)


#: ``plan_run``'s option keywords: name -> (consuming stage, default).  The
#: four resilience fields arrive resolved, as one ``resilience`` keyword.
PLAN_KEYWORDS = {
    **{
        f.name: (f.metadata["feeds"], f.default)
        for f in fields(JobSpec) if f.metadata["feeds"] in PLAN_STAGES
    },
    "resilience": ("executor", None),
}


def plan_options(given: Dict) -> Dict[str, Dict]:
    """``run_app``'s option keywords with defaults filled in, grouped by the
    :data:`PLAN_STAGES` stage that consumes them; an unknown one is refused
    by name, and so is a value in its declared (string) form that the
    option's declared choices do not hold; a declared form is resolved
    as :meth:`JobSpec.run_options` resolves it (``level="osi"``)."""
    unknown = sorted(set(given) - set(PLAN_KEYWORDS))
    if unknown:
        raise TypeError(
            f"unknown run option(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(PLAN_KEYWORDS))})"
        )
    given = _resolve_declared(dict(given), ExecutionError)
    stages: Dict[str, Dict] = {stage: {} for stage in PLAN_STAGES}
    for name, (stage, default) in PLAN_KEYWORDS.items():
        stages[stage][name] = given.get(name, default)
    return stages


# -- what cannot be combined -----------------------------------------------------


class Refusal(NamedTuple):
    """One refused combination: ``context`` (a key of :data:`CONTEXTS`)
    says where it applies, ``feature`` names it, ``when`` is the condition
    on the request that triggers it, and ``message`` (a ``str.format``
    template over the request) is what the user is told."""

    context: str
    feature: str
    when: Callable
    message: str


#: Where a refusal applies, as a condition on the request.
CONTEXTS = {
    "any run": lambda r: True,
    "process runtime": lambda r: r.runtime == "process",
    "streaming session": lambda r: r.streaming,
}

_IMMUTABLE = " requires --runtime simulated (the workers run on the layout they were forked with)"
_SESSION = (
    "streaming sessions do not support {0}={{{0}!r}}: mutations resume a "
    "simulated, unsanitized, fault-free executor"
)

#: Every refused combination: (context, feature, when, message).  The
#: process-runtime rows each need the coordinator to observe or replace
#: host state mid-run, which only the simulated runtime can do
#: (``repartition`` / ``apply_mutations`` are executor operations, refused
#: when called); a live session resumes one simulated, unsanitized,
#: fault-free executor per graph version, so there every executor option
#: must keep its default.
REFUSALS = tuple(Refusal(*row) for row in (
    ("any run", "shared-memory system on several hosts",
     lambda r: r.system in SHARED_MEMORY_SYSTEMS and r.num_hosts != 1,
     "{system} is a shared-memory system; use d-{system} for {num_hosts} hosts"),
    ("any run", "shared-memory system with a policy",
     lambda r: r.system in SHARED_MEMORY_SYSTEMS and r.policy is not None,
     "{system} runs unpartitioned; the policy flag applies to distributed systems"),
    ("any run", "gemini with a foreign policy",
     lambda r: r.system == "gemini" and r.policy not in (None, "gemini"),
     "Gemini supports only its own edge cut (§5)"),
    ("any run", "gunrock beyond one node",
     lambda r: r.system == "gunrock" and r.num_hosts > GPUS_PER_NODE,
     f"Gunrock is single-node: at most {GPUS_PER_NODE} GPUs (§5.5)"),
    ("any run", "gunrock with a vertex cut",
     lambda r: r.system == "gunrock" and r.policy not in (None, "random", "oec"),
     "Gunrock supports only outgoing edge cuts (§5.5)"),
    ("any run", "workers without the process runtime",
     lambda r: r.workers is not None and r.runtime != "process",
     "--workers only applies to --runtime process"),
    ("process runtime", "sanitize", lambda r: r.sanitize,
     "the proxy sanitizer requires --runtime simulated"),
    ("process runtime", "crash faults",
     lambda r: bool(r.resilience and r.resilience.plan and r.resilience.plan.crashes),
     "crash-fault plans require --runtime simulated "
     "(transient drop/corrupt/dup faults are fine)"),
    ("process runtime", "periodic checkpoints",
     lambda r: r.resilience is not None and r.resilience.checkpoint_every > 0,
     "periodic checkpoints require --runtime simulated"),
    ("process runtime", "repartition", lambda r: r.operation == "repartition",
     "mid-run repartitioning" + _IMMUTABLE),
    ("process runtime", "apply_mutations", lambda r: r.operation == "apply_mutations",
     "apply_mutations" + _IMMUTABLE),
    *(
        ("streaming session", name,
         lambda r, name=name: getattr(r, name) != PLAN_KEYWORDS[name][1],
         _SESSION.format(name))
        for name in ("resilience", "runtime", "workers", "sanitize")
    ),
))


#: The request under which no row fires: every option at its default.
_NOTHING_ASKED = dict(
    {name: default for name, (_, default) in PLAN_KEYWORDS.items()},
    system=None, num_hosts=1, streaming=False, operation=None,
)


def refusal_for(**request) -> Optional[str]:
    """The message of the first :data:`REFUSALS` row ``request`` triggers.

    ``request`` is whatever the caller knows of: ``system``, ``num_hosts``,
    ``streaming``, ``operation`` (an executor method being called) and the
    ``plan_run`` keywords; what it leaves out takes its default, under
    which no row fires, and what no row reads is ignored.  ``None``: the
    combination runs.
    """
    asked = {**_NOTHING_ASKED, **request}
    view = SimpleNamespace(**asked)
    for row in REFUSALS:
        if CONTEXTS[row.context](view) and row.when(view):
            return row.message.format(**asked)
    return None


def check_refusals(**request) -> None:
    """Raise :class:`ExecutionError` with the table's message if
    :func:`refusal_for` refuses ``request``."""
    message = refusal_for(**request)
    if message is not None:
        raise ExecutionError(message)


# -- the tables, as DESIGN.md prints them ----------------------------------------


def _markdown(header, rows) -> str:
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def option_table() -> str:
    """The option table as the markdown DESIGN §5 carries."""
    rows = []
    for spec_field in fields(JobSpec):
        meta = spec_field.metadata
        flags = f"`{_flag(spec_field)}`"
        if meta["only"] is not None:
            flags += f" ({meta['only']} only)"
        default = "required" if spec_field.default is MISSING else f"`{spec_field.default!r}`"
        rows.append((
            f"`{spec_field.name}`", flags, default, meta["feeds"],
            meta["hashed"], "yes" if meta["wire"] else "",
        ))
    return _markdown(("option", "flag", "default", "feeds", "hashed", "wire-changing"), rows)


def refusal_table() -> str:
    """The refusal table as the markdown DESIGN §5 carries."""
    rows = [(row.context, row.feature, f"`{row.message}`") for row in REFUSALS]
    return _markdown(("context", "refused", "message"), rows)
