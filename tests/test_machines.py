"""Unit tests for the machine registry and the shipped platforms."""

import pytest

from repro.engine import (
    EXASCALE,
    GRID5000,
    KRAKEN,
    Machine,
    machine_names,
    register_machine,
    resolve_machine,
)
from repro.experiments import run_throughput
from repro.util import GB, MB


def test_shipped_machines_registered():
    assert {"kraken", "grid5000", "exascale"} <= set(machine_names())
    assert resolve_machine("grid5000") is GRID5000
    assert resolve_machine("EXASCALE") is EXASCALE


def test_machines_have_distinct_shapes():
    assert GRID5000.cores_per_node < KRAKEN.cores_per_node < EXASCALE.cores_per_node
    assert GRID5000.peak_bandwidth < KRAKEN.peak_bandwidth < EXASCALE.peak_bandwidth


def test_register_machine_rejects_duplicates():
    with pytest.raises(ValueError):
        register_machine(KRAKEN.with_overrides())
    # Same name via a modified copy is also rejected without replace_existing.
    with pytest.raises(ValueError):
        register_machine(KRAKEN.with_overrides(ost_count=1))


def test_register_custom_machine_resolves_by_name():
    toy = Machine(
        name="toy-cluster",
        cores_per_node=4,
        ost_count=8,
        ost_bandwidth=50 * MB,
        shm_bandwidth=1 * GB,
        metadata_rate=100.0,
        collective_bandwidth=0.2 * GB,
    )
    try:
        register_machine(toy)
        assert resolve_machine("toy-cluster") is toy
        register_machine(toy.with_overrides(ost_count=16), replace_existing=True)
        assert resolve_machine("toy-cluster").ost_count == 16
    finally:
        from repro.engine.machines import _MACHINES

        _MACHINES.pop("toy-cluster", None)


def test_experiments_run_on_alternate_machines():
    """New platforms are one string away for any experiment runner."""
    for machine in ("grid5000", "exascale"):
        table = run_throughput(ranks=192, machine=machine, iterations=1)
        assert len(table) == 3
        assert all(row["throughput_gb_s"] > 0 for row in table)


def test_machine_has_nic_bandwidth():
    assert KRAKEN.nic_bandwidth > 0
    assert EXASCALE.nic_bandwidth > KRAKEN.nic_bandwidth


@pytest.mark.parametrize(
    ("field", "value", "rule"),
    [
        ("cores_per_node", 0, ">= 1"),
        ("ost_count", 0, ">= 1"),
        ("ost_count", -3, ">= 1"),
        ("ost_bandwidth", -90 * MB, "finite and > 0"),
        ("ost_bandwidth", 0.0, "finite and > 0"),
        ("ost_bandwidth", float("inf"), "finite and > 0"),
        ("shm_bandwidth", float("nan"), "finite and > 0"),
        ("metadata_rate", 0.0, "finite and > 0"),
        ("collective_bandwidth", -1.0, "finite and > 0"),
        ("nic_bandwidth", float("inf"), "finite and > 0"),
        ("small_write_seek_penalty", -0.1, "finite and >= 0"),
        ("large_write_seek_penalty", float("nan"), "finite and >= 0"),
        ("large_write_seek_penalty", float("inf"), "finite and >= 0"),
    ],
)
def test_machine_rejects_invalid_field(field, value, rule):
    # A negative bandwidth returned a completion before the write's own
    # arrival on both backends; a zero one divided by zero.
    with pytest.raises(ValueError, match=rf"Machine {field} must be {rule}, got"):
        KRAKEN.with_overrides(**{field: value})


def test_machine_accepts_boundary_values():
    flat = KRAKEN.with_overrides(
        cores_per_node=1, ost_count=1, small_write_seek_penalty=0.0, large_write_seek_penalty=0.0
    )
    assert flat.ost_count == 1
    assert flat.seek_penalty(8.0, large_writes=False) == pytest.approx(1.0)
