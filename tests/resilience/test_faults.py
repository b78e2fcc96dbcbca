"""Unit tests for the fault model: plans, parsing, and the injector."""

import pytest

from repro.errors import FaultPlanError
from repro.resilience.faults import (
    CORRUPT,
    DELIVER,
    DROP,
    DUPLICATE,
    CrashFault,
    FaultInjector,
    FaultPlan,
)


class TestCrashFault:
    def test_valid(self):
        crash = CrashFault(host=2, round_index=5)
        assert (crash.host, crash.round_index) == (2, 5)

    def test_negative_host_rejected(self):
        with pytest.raises(FaultPlanError):
            CrashFault(host=-1, round_index=1)

    def test_round_zero_rejected(self):
        with pytest.raises(FaultPlanError):
            CrashFault(host=0, round_index=0)


class TestFaultPlan:
    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.is_empty
        assert not plan.has_transient

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(FaultPlanError):
            FaultPlan(corrupt_rate=-0.1)

    def test_rates_summing_past_one_rejected(self):
        with pytest.raises(FaultPlanError, match="sum"):
            FaultPlan(drop_rate=0.5, corrupt_rate=0.4, duplicate_rate=0.2)

    def test_host_crashing_twice_rejected(self):
        with pytest.raises(FaultPlanError, match="twice"):
            FaultPlan(crashes=(CrashFault(1, 2), CrashFault(1, 5)))

    def test_validate_hosts(self):
        plan = FaultPlan(crashes=(CrashFault(3, 1),))
        plan.validate_hosts(4)
        with pytest.raises(FaultPlanError, match="cluster has 2"):
            plan.validate_hosts(2)

    def test_negative_seed_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(seed=-1)


class TestParse:
    def test_full_grammar(self):
        plan = FaultPlan.parse(
            "crash:1@3, drop:0.05, corrupt:0.01, dup:0.02", seed=9
        )
        assert plan.crashes == (CrashFault(1, 3),)
        assert plan.drop_rate == pytest.approx(0.05)
        assert plan.corrupt_rate == pytest.approx(0.01)
        assert plan.duplicate_rate == pytest.approx(0.02)
        assert plan.seed == 9

    def test_crash_only(self):
        plan = FaultPlan.parse("crash:0@1")
        assert plan.crashes == (CrashFault(0, 1),)
        assert not plan.has_transient

    def test_missing_round_rejected(self):
        with pytest.raises(FaultPlanError, match="crash:HOST@ROUND"):
            FaultPlan.parse("crash:1")

    def test_non_integer_crash_rejected(self):
        with pytest.raises(FaultPlanError, match="ints"):
            FaultPlan.parse("crash:one@2")

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultPlan.parse("meteor:0.5")

    def test_missing_value_rejected(self):
        with pytest.raises(FaultPlanError, match="needs a value"):
            FaultPlan.parse("drop")

    def test_bad_rate_rejected(self):
        with pytest.raises(FaultPlanError, match="float"):
            FaultPlan.parse("drop:lots")


class TestFaultInjector:
    def test_sequence_numbers_monotonic(self):
        injector = FaultInjector(FaultPlan())
        seqs = [injector.next_seq() for _ in range(5)]
        assert seqs == sorted(set(seqs))

    def test_crashes_fire_once(self):
        plan = FaultPlan(crashes=(CrashFault(1, 3), CrashFault(0, 3)))
        injector = FaultInjector(plan)
        assert injector.take_crashes(2) == []
        assert injector.take_crashes(3) == [0, 1]
        # A replayed round 3 must not re-kill the reborn hosts.
        assert injector.take_crashes(3) == []
        assert injector.pending_crashes == []

    def test_no_transient_always_delivers(self):
        injector = FaultInjector(FaultPlan())
        assert all(injector.decide_fate() == DELIVER for _ in range(100))

    def test_fates_deterministic_per_seed(self):
        plan = FaultPlan(drop_rate=0.3, corrupt_rate=0.2, duplicate_rate=0.1,
                         seed=42)
        a = [FaultInjector(plan).decide_fate() for _ in range(1)]
        fates1 = [f for inj in [FaultInjector(plan)]
                  for f in (inj.decide_fate() for _ in range(200))]
        fates2 = [f for inj in [FaultInjector(plan)]
                  for f in (inj.decide_fate() for _ in range(200))]
        assert fates1 == fates2
        assert {DROP, CORRUPT, DUPLICATE} <= set(fates1)
        assert a[0] == fates1[0]

    def test_corrupt_flips_exactly_one_byte(self):
        injector = FaultInjector(FaultPlan(corrupt_rate=1.0, seed=1))
        frame = bytes(range(32))
        damaged = injector.corrupt(frame)
        assert len(damaged) == len(frame)
        diffs = [i for i, (x, y) in enumerate(zip(frame, damaged)) if x != y]
        assert len(diffs) == 1
        assert damaged[diffs[0]] == frame[diffs[0]] ^ 0xFF
