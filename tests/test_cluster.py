"""Unit tests for the cluster model: Machine, overrides, and the OST DES."""

import dataclasses

import pytest

from repro.engine import KRAKEN, Machine, WriteRequest, resolve_machine, simulate_writes
from repro.util import MB


def test_kraken_constants():
    assert KRAKEN.cores_per_node == 12
    assert KRAKEN.ost_count == 336
    assert KRAKEN.peak_bandwidth == pytest.approx(336 * 90 * MB)


def test_with_overrides_returns_new_machine():
    small = KRAKEN.with_overrides(ost_count=96)
    assert small.ost_count == 96
    assert small.cores_per_node == KRAKEN.cores_per_node
    assert KRAKEN.ost_count == 336  # original untouched
    assert isinstance(small, Machine)


def test_with_overrides_rejects_unknown_fields():
    with pytest.raises(TypeError):
        KRAKEN.with_overrides(not_a_field=1)


def test_machine_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        KRAKEN.ost_count = 1  # type: ignore[misc]


def test_resolve_machine_by_name_and_instance():
    assert resolve_machine("kraken") is KRAKEN
    assert resolve_machine("KRAKEN") is KRAKEN
    assert resolve_machine(KRAKEN) is KRAKEN
    with pytest.raises(ValueError):
        resolve_machine("summit")


def test_nodes_for():
    assert KRAKEN.nodes_for(576) == 48
    assert KRAKEN.nodes_for(5) == 1


def test_seek_penalty_shape():
    assert KRAKEN.seek_penalty(1, large_writes=False) == pytest.approx(1.0)
    small = KRAKEN.seek_penalty(4, large_writes=False)
    large = KRAKEN.seek_penalty(4, large_writes=True)
    assert small > large > 1.0
    # Saturates instead of growing without bound.
    assert KRAKEN.seek_penalty(1000, large_writes=False) == KRAKEN.seek_penalty(
        500, large_writes=False
    )


def test_single_stream_runs_at_full_bandwidth():
    done = simulate_writes(
        KRAKEN,
        [WriteRequest(arrival=0.0, ost=0, nbytes=90 * MB, tag=0)],
        large_writes=True,
    )
    assert done[0] == pytest.approx(1.0, rel=1e-6)


def test_sharing_an_ost_is_slower_than_spreading():
    reqs_shared = [WriteRequest(arrival=0.0, ost=0, nbytes=90 * MB, tag=i) for i in range(4)]
    reqs_spread = [WriteRequest(arrival=0.0, ost=i, nbytes=90 * MB, tag=i) for i in range(4)]
    shared = simulate_writes(KRAKEN, reqs_shared, large_writes=True)
    spread = simulate_writes(KRAKEN, reqs_spread, large_writes=True)
    assert max(shared.values()) > max(spread.values())
    # Interleaving pays a seek penalty on top of the bandwidth split.
    assert max(shared.values()) > 4.0


def test_late_arrival_completes_after_early_one():
    done = simulate_writes(
        KRAKEN,
        [
            WriteRequest(arrival=0.0, ost=0, nbytes=45 * MB, tag=0),
            WriteRequest(arrival=10.0, ost=0, nbytes=45 * MB, tag=1),
        ],
        large_writes=True,
    )
    # The first write finishes alone before the second even arrives.
    assert done[0] == pytest.approx(0.5, rel=1e-6)
    assert done[1] == pytest.approx(10.5, rel=1e-6)
