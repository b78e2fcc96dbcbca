"""The §3.2 per-strategy communication patterns, on the live sync plan.

Every assertion reads the object the round loop consults — the
``SyncPlan`` that ``bind_sync_plans`` installs on each substrate — for a
field with the default ``writes={"destination"}`` / ``reads={"source"}``
declaration.
"""

import numpy as np

from repro.core.optimization import OptimizationLevel
from repro.core.substrate import setup_substrates
from repro.core.sync_structures import MIN, FieldSpec
from repro.network.transport import InProcessTransport
from repro.partition import make_partitioner
from tests.conftest import bind_one_field


def plans_for(edges, policy, num_hosts, structural):
    """``(partitioned, [host's FieldPlan for the one bound field])``."""
    partitioned = make_partitioner(policy).partition(edges, num_hosts)
    level = OptimizationLevel.OSTI if structural else OptimizationLevel.OTI
    subs = setup_substrates(partitioned, InProcessTransport(num_hosts), level)
    fields = [
        FieldSpec("v", np.zeros(part.num_nodes, dtype=np.uint32), MIN)
        for part in partitioned.partitions
    ]
    return partitioned, bind_one_field(subs, fields)


def exchanges(plan, phase) -> bool:
    """Whether any peer exchanges ``phase`` data with the host."""
    return bool(plan.sends[phase]) or any(len(a) for a in plan.recv[phase].values())


class TestStructuralPlans:
    def test_oec_is_reduce_only(self, small_rmat):
        """§3.2 OEC: only the reduce pattern is required."""
        _, plans = plans_for(small_rmat, "oec", 4, structural=True)
        assert any(exchanges(p, "reduce") for p in plans)
        assert all(not exchanges(p, "broadcast") for p in plans)
        assert all(p.live["reduce"] and not p.live["broadcast"] for p in plans)

    def test_iec_is_broadcast_only(self, small_rmat):
        """§3.2 IEC: only the broadcast (halo-exchange) pattern."""
        _, plans = plans_for(small_rmat, "iec", 4, structural=True)
        assert all(not exchanges(p, "reduce") for p in plans)
        assert any(exchanges(p, "broadcast") for p in plans)
        assert all(p.live["broadcast"] and not p.live["reduce"] for p in plans)

    def test_uvc_needs_both(self, small_rmat):
        """§3.2 UVC: full gather-apply-scatter."""
        _, plans = plans_for(small_rmat, "hvc", 4, structural=True)
        assert any(exchanges(p, "reduce") for p in plans)
        assert any(exchanges(p, "broadcast") for p in plans)

    def test_cvc_uses_disjoint_subsets(self, small_rmat):
        """§3.2 CVC: each mirror is in the reduce or broadcast subset,
        never both."""
        partitioned, plans = plans_for(small_rmat, "cvc", 4, structural=True)
        for plan in plans:
            reduce_set = set()
            for _, arr in plan.sends["reduce"]:
                reduce_set.update(arr.tolist())
            broadcast_set = set()
            for arr in plan.recv["broadcast"].values():
                broadcast_set.update(arr.tolist())
            assert reduce_set.isdisjoint(broadcast_set)

    def test_cvc_reduces_partner_count(self, medium_rmat):
        """§5.6: CVC with OSI broadcasts to fewer partners than without."""
        _, structural = plans_for(medium_rmat, "cvc", 16, structural=True)
        _, unrestricted = plans_for(medium_rmat, "cvc", 16, structural=False)
        structural_partners = max(len(p.sends["broadcast"]) for p in structural)
        unrestricted_partners = max(
            len(p.sends["broadcast"]) for p in unrestricted
        )
        assert structural_partners < unrestricted_partners


class TestUnrestrictedPlans:
    def test_gas_plans_cover_all_mirrors(self, small_rmat):
        partitioned, plans = plans_for(small_rmat, "cvc", 4, structural=False)
        for part, plan in zip(partitioned.partitions, plans):
            reduce_total = sum(len(a) for _, a in plan.sends["reduce"])
            broadcast_total = sum(
                len(a) for a in plan.recv["broadcast"].values()
            )
            assert reduce_total == part.num_mirrors
            assert broadcast_total == part.num_mirrors

    def test_oec_without_osi_broadcasts(self, small_rmat):
        """With OSI off, even OEC partitions broadcast to all mirrors."""
        _, plans = plans_for(small_rmat, "oec", 4, structural=False)
        assert any(exchanges(p, "broadcast") for p in plans)
        assert all(p.live["broadcast"] for p in plans)

    def test_subsets_are_subsets(self, small_rmat):
        _, restricted = plans_for(small_rmat, "hvc", 4, structural=True)
        _, full = plans_for(small_rmat, "hvc", 4, structural=False)
        for r, f in zip(restricted, full):
            full_sends = dict(f.sends["reduce"])
            for peer, arr in r.sends["reduce"]:
                assert set(arr.tolist()) <= set(full_sends[peer].tolist())
            for peer, arr in r.recv["broadcast"].items():
                assert set(arr.tolist()) <= set(
                    f.recv["broadcast"][peer].tolist()
                )


class TestPlanProperties:
    def test_sends_drop_empty_peers_in_peer_order(self, small_rmat):
        _, plans = plans_for(small_rmat, "cvc", 4, structural=True)
        for plan in plans:
            for sends in plan.sends.values():
                peers = [peer for peer, _ in sends]
                assert peers == sorted(peers)
                assert 0 <= len(peers) <= 3
                assert all(len(arr) for _, arr in sends)

    def test_single_host_plan_is_empty(self, small_rmat):
        _, plans = plans_for(small_rmat, "cvc", 1, structural=True)
        assert not exchanges(plans[0], "reduce") and not plans[0].live["reduce"]
        assert not exchanges(plans[0], "broadcast") and not plans[0].live["broadcast"]

    def test_undeclared_phase_has_no_sends_and_is_dead(self, small_rmat):
        partitioned = make_partitioner("hvc").partition(small_rmat, 4)
        subs = setup_substrates(
            partitioned, InProcessTransport(4), OptimizationLevel.OSTI
        )
        fields = [
            FieldSpec(
                "v", np.zeros(part.num_nodes, dtype=np.uint32), MIN,
                sync_phases={"reduce"},
            )
            for part in partitioned.partitions
        ]
        bind_one_field(subs, fields)
        for sub in subs:
            (entry,) = sub.plan.fields
            assert entry.sends["broadcast"] == () and not entry.live["broadcast"]
            assert entry.live["reduce"]
            assert not sub.plan.live("broadcast") and sub.plan.live("reduce")
