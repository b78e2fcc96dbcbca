"""Runtime proxy-access sanitizer (the ``--sanitize`` debug mode).

The static lint pass reasons about code; this module watches the *actual*
accesses.  During each compute round, every synchronized field's state
array is swapped for a :class:`GuardedArray` — a zero-copy
``numpy.ndarray`` view that performs the identical memory operations
(results stay bitwise-identical to an unsanitized run) while recording
endpoint-indexed accesses against the field's *proxy sets*:

* **lost update (GL201)** — a write landed on a mirror outside the
  field's declared-write proxy set.  The reduce phase selects its
  senders from that set (Figure 4's ``sync<WriteLocation, ...>``
  specialization), so the update will never reach the master.
* **stale read (GL202)** — a read, after at least one completed sync
  round, touched a mirror outside the declared-read proxy set.  The
  broadcast phase never refreshes such a mirror, so the compute consumed
  a stale value.

Only integer fancy-index accesses are checked: boolean masks, slices,
and scalars are local control flow (a frontier update like
``pushed[to_push] = True``), carry no endpoint information, and are
deliberately exempt.  So is an integer access made on a line the
compiler declared as addressing no endpoint
(:attr:`~repro.apps.base.VertexProgram.non_endpoint_lines`, empty for a
handwritten program): a guard over the frontier's IDs (``dist[usable]``
for ``usable = frontier``: active nodes, not edge endpoints) and a
sparse scatter's snapshot of the very slots it writes.  The
sanitizer, like the lint pass, under-approximates and never
false-positives on the built-in programs.
"""

from __future__ import annotations

import inspect
import sys
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.findings import Finding

#: Cap on sample node IDs carried in one finding's details.
SAMPLE_IDS = 8


def _is_index_array(index) -> bool:
    """True for integer fancy indexes (the only checked access shape)."""
    return (
        isinstance(index, np.ndarray)
        and index.ndim >= 1
        and index.dtype.kind in "iu"
    )


@dataclass
class FieldGuard:
    """Access policy for one field on one host, valid for one round."""

    field_name: str
    host: int
    round_index: int
    #: Masters plus the declared-write proxy set (reduce senders).
    writable: np.ndarray
    #: Masters plus the declared-read proxy set (broadcast receivers).
    readable: np.ndarray
    #: Stale reads are only meaningful once a sync could have refreshed.
    check_reads: bool
    global_ids: Optional[np.ndarray]
    sink: "ProxySanitizer"

    def record(self, kind: str, index: np.ndarray, depth: int = 2) -> None:
        mask = self.writable if kind == "write" else self.readable
        if kind == "read" and not self.check_reads:
            return
        flat = np.asarray(index).ravel()
        try:
            violating = flat[~mask[flat]]
        except IndexError:
            # Out of bounds: let the actual array operation raise the
            # user-facing error; the sanitizer stays silent.
            return
        if len(violating):
            # Frame ``depth`` is the program statement behind
            # __getitem__, __setitem__, __array_ufunc__, or the kernel
            # call whose body declared the access through audit_access.
            caller = sys._getframe(depth)
            where = (caller.f_code.co_filename, caller.f_lineno)
            if where in self.sink.non_endpoint_lines:
                return
            self.sink.report(self, kind, np.unique(violating))


class GuardedArray(np.ndarray):
    """A view of a field array that audits endpoint-indexed accesses.

    Every operation is delegated to the underlying memory, and derived
    arrays (views, copies, ufunc results) drop the guard — so data flow,
    dtype promotion, and results are identical to the plain array.  A
    kernel whose compiled loop bypasses NumPy's indexing declares its
    endpoint accesses through :meth:`audit_access` instead.
    """

    _guard: Optional[FieldGuard]

    def __array_finalize__(self, obj) -> None:
        # Derived arrays are inert: only the view the sanitizer installed
        # into the state dict audits accesses.
        self._guard = None

    def audit_access(self, kind: str, index: np.ndarray) -> None:
        """Audit a ``"read"`` or ``"write"`` of the rows at ``index``."""
        if self._guard is not None:
            self._guard.record(kind, index, depth=3)

    def __getitem__(self, index):
        guard = self._guard
        if guard is not None and _is_index_array(index):
            guard.record("read", index)
        result = super().__getitem__(index)
        if isinstance(result, np.ndarray):
            return result.view(np.ndarray)
        return result

    def __setitem__(self, index, value) -> None:
        guard = self._guard
        if guard is not None and _is_index_array(index):
            guard.record("write", index)
        if isinstance(value, GuardedArray):
            value = value.view(np.ndarray)
        super().__setitem__(index, value)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        guard = self._guard
        if guard is not None and method == "at" and inputs[0] is self:
            # ``np.<ufunc>.at(field, indices, ...)`` — the scatter shape
            # every push-style operator uses.
            if len(inputs) >= 2 and _is_index_array(np.asarray(inputs[1])):
                guard.record("write", np.asarray(inputs[1]))
        plain = tuple(
            x.view(np.ndarray) if isinstance(x, GuardedArray) else x
            for x in inputs
        )
        out = kwargs.get("out")
        if out is not None:
            kwargs["out"] = tuple(
                x.view(np.ndarray) if isinstance(x, GuardedArray) else x
                for x in out
            )
        return getattr(ufunc, method)(*plain, **kwargs)


def guard_view(base: np.ndarray, guard: FieldGuard) -> GuardedArray:
    """A guarded zero-copy view of ``base``."""
    view = base.view(GuardedArray)
    view._guard = guard
    return view


@dataclass
class _Violation:
    """Aggregated violations of one (rule, host, field) triple."""

    rule_id: str
    host: int
    field_name: str
    first_round: int
    count: int = 0
    sample: List[int] = dataclass_field(default_factory=list)


class ProxySanitizer:
    """Per-run sanitizer: wraps compute rounds, accumulates findings.

    Drive it from the executor::

        sanitizer = ProxySanitizer(app)
        with sanitizer.guard_round(host, part, fields, substrate,
                                   state, round_index):
            engine.compute_round(app, part, state, frontier)
        sanitizer.note_sync_completed()   # after each synchronize
        findings = sanitizer.findings()
    """

    def __init__(self, app) -> None:
        self.app = app
        self.subject = type(app).__name__
        self.rounds_synced = 0
        self._violations: Dict[tuple, _Violation] = {}
        self._anchor = self._step_anchor(app)
        self.non_endpoint_lines = type(app).non_endpoint_lines

    @staticmethod
    def _step_anchor(app):
        """``file:line`` of the app's step — the code being audited."""
        try:
            step = type(app).step
            filename = inspect.getsourcefile(step)
            _, line = inspect.getsourcelines(step)
            return filename, line
        except (OSError, TypeError):
            return None, None

    def note_sync_completed(self) -> None:
        """Mark one completed sync round (enables stale-read checks)."""
        self.rounds_synced += 1

    def guard_round(
        self, host, partition, fields, substrate, state, round_index
    ):
        """Context manager guarding one host's compute for one round."""
        return _RoundGuard(
            self, host, partition, fields, substrate, state, round_index
        )

    def report(
        self, guard: FieldGuard, kind: str, violating: np.ndarray
    ) -> None:
        rule_id = "GL201" if kind == "write" else "GL202"
        key = (rule_id, guard.host, guard.field_name)
        violation = self._violations.get(key)
        if violation is None:
            violation = _Violation(
                rule_id=rule_id,
                host=guard.host,
                field_name=guard.field_name,
                first_round=guard.round_index,
            )
            self._violations[key] = violation
        violation.count += int(len(violating))
        if len(violation.sample) < SAMPLE_IDS:
            ids = violating
            if guard.global_ids is not None:
                ids = guard.global_ids[violating]
            for gid in ids[: SAMPLE_IDS - len(violation.sample)]:
                violation.sample.append(int(gid))

    def findings(self) -> List[Finding]:
        """The accumulated findings, one per (rule, host, field)."""
        filename, line = self._anchor
        out = []
        for violation in self._violations.values():
            if violation.rule_id == "GL201":
                message = (
                    f"host {violation.host}: {violation.count} write(s) to "
                    f"mirrors outside the declared-write proxy set (first "
                    f"in round {violation.first_round}, global nodes "
                    f"{violation.sample}) — the reduce phase never ships "
                    "these updates"
                )
            else:
                message = (
                    f"host {violation.host}: {violation.count} read(s) of "
                    f"mirrors outside the declared-read proxy set (first "
                    f"in round {violation.first_round}, global nodes "
                    f"{violation.sample}) — the broadcast never refreshed "
                    "these values"
                )
            out.append(
                Finding(
                    rule_id=violation.rule_id,
                    message=message,
                    subject=self.subject,
                    file=filename,
                    line=line,
                    field_name=violation.field_name,
                    details={
                        "host": violation.host,
                        "count": violation.count,
                        "first_round": violation.first_round,
                        "sample_global_ids": violation.sample,
                    },
                )
            )
        return out

    def findings_as_dicts(self) -> List[Dict]:
        """JSON-ready findings (what lands on the RunResult)."""
        return [finding.to_dict() for finding in self.findings()]


class _RoundGuard:
    """Swaps state entries for guarded views around one compute call."""

    def __init__(
        self, sanitizer, host, partition, fields, substrate, state,
        round_index,
    ) -> None:
        self.sanitizer = sanitizer
        self.host = host
        self.partition = partition
        self.fields = fields
        self.substrate = substrate
        self.state = state
        self.round_index = round_index
        self._installed: List[tuple] = []

    def _masks(self, field):
        """(writable, readable) node masks for one field on this host."""
        num_nodes = self.partition.num_nodes
        if self.substrate is None:
            # Sync disabled: single host, every proxy is a master.
            full = np.ones(num_nodes, dtype=bool)
            return full, full
        return (
            self.substrate.writable_mirror_mask(field),
            self.substrate.readable_mirror_mask(field),
        )

    def __enter__(self):
        check_reads = self.sanitizer.rounds_synced > 0
        global_ids = getattr(self.partition, "local_to_global", None)
        for field in self.fields:
            writable, readable = self._masks(field)
            guard = FieldGuard(
                field_name=field.name,
                host=self.host,
                round_index=self.round_index,
                writable=writable,
                readable=readable,
                check_reads=check_reads,
                global_ids=global_ids,
                sink=self.sanitizer,
            )
            arrays = [field.values]
            if field.broadcast_values is not field.values:
                arrays.append(field.broadcast_values)
            for key, value in list(self.state.items()):
                if any(value is array for array in arrays):
                    self._installed.append((key, value))
                    self.state[key] = guard_view(value, guard)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for key, original in self._installed:
            current = self.state.get(key)
            if isinstance(current, GuardedArray):
                # The guarded view shares memory, so the original array
                # already carries every write the compute performed.
                self.state[key] = original
        self._installed.clear()
        return None
