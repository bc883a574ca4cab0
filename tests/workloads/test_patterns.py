"""Tests for the traffic-matrix generators."""

import pytest

import repro.topology as T
from repro.units import GBPS
from repro.workloads.patterns import (
    incast,
    rack_level_shuffle,
    random_permutation,
)


@pytest.fixture()
def topo():
    return T.full_mesh(8, 4)  # 32 servers, 8 racks


class TestRandomPermutation:
    def test_every_server_sends_once(self, topo):
        matrix = random_permutation(topo, demand=GBPS, seed=1)
        senders = [m[0] for m in matrix]
        assert sorted(senders) == sorted(topo.servers())

    def test_every_server_receives_once(self, topo):
        matrix = random_permutation(topo, demand=GBPS, seed=1)
        receivers = [m[1] for m in matrix]
        assert sorted(receivers) == sorted(topo.servers())

    def test_no_self_traffic(self, topo):
        matrix = random_permutation(topo, demand=GBPS, seed=2)
        assert all(src != dst for src, dst, _ in matrix)

    def test_deterministic(self, topo):
        assert random_permutation(topo, GBPS, seed=3) == random_permutation(
            topo, GBPS, seed=3
        )

    def test_needs_two_servers(self):
        tiny = T.full_mesh(2, 0)
        tiny.add_server("h", rack=0)
        tiny.add_link("h", "tor0", GBPS)
        with pytest.raises(ValueError):
            random_permutation(tiny, GBPS)


class TestIncast:
    def test_fan_in_per_receiver(self, topo):
        matrix = incast(topo, demand=GBPS, fan_in=10, seed=1)
        per_receiver: dict[str, int] = {}
        for src, dst, _ in matrix:
            assert src != dst
            per_receiver[dst] = per_receiver.get(dst, 0) + 1
        assert all(count == 10 for count in per_receiver.values())
        assert len(per_receiver) == len(topo.servers())

    def test_senders_distinct_per_receiver(self, topo):
        matrix = incast(topo, demand=GBPS, fan_in=10, seed=2)
        by_receiver: dict[str, list[str]] = {}
        for src, dst, _ in matrix:
            by_receiver.setdefault(dst, []).append(src)
        for senders in by_receiver.values():
            assert len(senders) == len(set(senders))

    def test_too_few_servers_rejected(self):
        small = T.full_mesh(2, 2)
        with pytest.raises(ValueError):
            incast(small, GBPS, fan_in=10)


class TestRackShuffle:
    def test_each_server_sends_to_distinct_racks(self, topo):
        matrix = rack_level_shuffle(topo, demand=GBPS, target_racks=4, seed=1)
        by_sender: dict[str, list[str]] = {}
        for src, dst, _ in matrix:
            by_sender.setdefault(src, []).append(dst)
        for src, dsts in by_sender.items():
            assert len(dsts) == 4
            dst_racks = {topo.rack(d) for d in dsts}
            assert len(dst_racks) == 4
            assert topo.rack(src) not in dst_racks

    def test_needs_enough_racks(self):
        small = T.full_mesh(3, 2)
        with pytest.raises(ValueError):
            rack_level_shuffle(small, GBPS, target_racks=4)

