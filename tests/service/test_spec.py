"""JobSpec/JobResult: identity, serialization, validation."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.errors import JobSpecError
from repro.service import JobSpec, values_digest
from repro.service.spec import SCHEDULING_FIELDS, JobResult


class TestContentHash:
    def test_identical_specs_agree(self):
        a = JobSpec(app="bfs", workload="rmat22s", hosts=4, policy="cvc")
        b = JobSpec(app="bfs", workload="rmat22s", hosts=4, policy="cvc")
        assert a.content_hash() == b.content_hash()
        assert a.job_id == b.job_id == a.content_hash()[:12]

    def test_any_work_field_changes_the_hash(self):
        base = JobSpec(app="bfs", workload="rmat22s", hosts=4, policy="cvc")
        variants = [
            JobSpec(app="pr", workload="rmat22s", hosts=4, policy="cvc"),
            JobSpec(app="bfs", workload="rmat24s", hosts=4, policy="cvc"),
            JobSpec(app="bfs", workload="rmat22s", hosts=8, policy="cvc"),
            JobSpec(app="bfs", workload="rmat22s", hosts=4, policy="oec"),
            JobSpec(
                app="bfs", workload="rmat22s", hosts=4, policy="cvc",
                scale_delta=-1,
            ),
            JobSpec(
                app="bfs", workload="rmat22s", hosts=4, policy="cvc",
                level="oti",
            ),
        ]
        hashes = {v.content_hash() for v in variants}
        assert base.content_hash() not in hashes
        assert len(hashes) == len(variants)

    def test_scheduling_fields_do_not_fragment_the_hash(self):
        plain = JobSpec(app="bfs", workload="rmat22s")
        eager = JobSpec(
            app="bfs", workload="rmat22s", priority=7, max_attempts=3
        )
        assert plain.content_hash() == eager.content_hash()
        for name in SCHEDULING_FIELDS:
            assert name not in plain.hashed_dict()

    def test_hash_is_stable_across_processes(self):
        """The cache key must not depend on interpreter state (PYTHONHASHSEED
        randomizes the builtin ``hash``; sha256 over canonical JSON must
        not care)."""
        spec = JobSpec(app="cc", workload="rmat22s", hosts=4, policy="oec")
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        code = (
            "from repro.service import JobSpec; "
            "print(JobSpec(app='cc', workload='rmat22s', hosts=4, "
            "policy='oec').content_hash())"
        )
        child = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={
                **os.environ,
                "PYTHONPATH": os.path.abspath(src),
                "PYTHONHASHSEED": "12345",
            },
            check=True,
        )
        assert child.stdout.strip() == spec.content_hash()


class TestSerialization:
    def test_dict_roundtrip(self):
        spec = JobSpec(
            app="sssp", workload="rmat22s", hosts=8, policy="hvc",
            level="osti", scale_delta=-2, priority=3, max_attempts=2,
        )
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(JobSpecError, match="unknown job field"):
            JobSpec.from_dict(
                {"app": "bfs", "workload": "rmat22s", "gpu": True}
            )

    def test_from_dict_requires_app_and_workload(self):
        with pytest.raises(JobSpecError, match="missing required"):
            JobSpec.from_dict({"app": "bfs"})
        with pytest.raises(JobSpecError, match="missing required"):
            JobSpec.from_dict({"workload": "rmat22s"})


class TestValidation:
    def test_unknown_app(self):
        with pytest.raises(JobSpecError, match="unknown app"):
            JobSpec(app="pagerank2", workload="rmat22s")

    def test_optimized_app_names_are_accepted_and_hash_apart(self):
        """ROADMAP 5e: the service takes every name ``repro run`` takes."""
        bare = JobSpec(app="bfs", workload="rmat22s")
        optimized = JobSpec(app="bfs@optimized", workload="rmat22s")
        assert optimized.app == "bfs@optimized"
        assert optimized.content_hash() != bare.content_hash()
        assert JobSpec.from_dict(optimized.to_dict()) == optimized

    def test_other_suffixes_are_still_rejected_by_name(self):
        with pytest.raises(JobSpecError, match="unknown app 'bfs@compiled'"):
            JobSpec(app="bfs@compiled", workload="rmat22s")

    def test_unknown_workload(self):
        with pytest.raises(JobSpecError, match="unknown workload"):
            JobSpec(app="bfs", workload="twitter-2010")

    def test_unknown_system(self):
        with pytest.raises(JobSpecError, match="unknown system"):
            JobSpec(app="bfs", workload="rmat22s", system="spark")

    def test_unknown_policy(self):
        with pytest.raises(JobSpecError, match="unknown policy"):
            JobSpec(app="bfs", workload="rmat22s", policy="metis")

    def test_unknown_level(self):
        with pytest.raises(JobSpecError, match="unknown optimization"):
            JobSpec(app="bfs", workload="rmat22s", level="turbo")

    def test_bad_hosts_and_attempts(self):
        with pytest.raises(JobSpecError, match="hosts"):
            JobSpec(app="bfs", workload="rmat22s", hosts=0)
        with pytest.raises(JobSpecError, match="max_attempts"):
            JobSpec(app="bfs", workload="rmat22s", max_attempts=0)

    def test_bad_fault_spec(self):
        with pytest.raises(JobSpecError, match="inject_fault"):
            JobSpec(app="bfs", workload="rmat22s", inject_fault="meteor:1")

    def test_bad_recovery_mode(self):
        with pytest.raises(JobSpecError, match="unknown recovery"):
            JobSpec(app="bfs", workload="rmat22s", recovery="pray")


class TestValuesDigest:
    def test_none_passthrough(self):
        assert values_digest(None) is None

    def test_deterministic_and_content_sensitive(self):
        a = np.arange(16, dtype=np.uint32)
        assert values_digest(a) == values_digest(a.copy())
        assert values_digest(a) != values_digest(a + 1)
        # dtype is part of the identity: same bytes, different meaning.
        assert values_digest(a) != values_digest(a.view(np.int32))


class TestJobResult:
    def _result(self):
        return JobResult(
            job_id="abc",
            spec_hash="abc" * 21 + "d",
            spec={"app": "bfs", "workload": "rmat22s", "hosts": 4},
            rounds=5,
            values=np.arange(4, dtype=np.uint32),
            wall_s=1.25,
            attempts=2,
            partition_cache="hit",
            result_cache="miss",
        )

    def test_payload_is_the_deterministic_projection(self):
        payload = self._result().payload()
        for bookkeeping in ("wall_s", "attempts", "backoff_s",
                            "partition_cache", "result_cache", "priority"):
            assert bookkeeping not in payload
        assert payload["rounds"] == 5

    def test_row_and_to_dict_carry_cache_provenance(self):
        result = self._result()
        assert result.row()["part$"] == "hit"
        assert result.row()["result$"] == "miss"
        doc = result.to_dict()
        assert doc["partition_cache"] == "hit"
        assert doc["attempts"] == 2
        assert "values" not in doc  # arrays reduce to their digest
