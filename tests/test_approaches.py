"""Unit tests for the approach registry and the dedicated-nodes variant."""

import numpy as np
import pytest

from repro.engine import KRAKEN
from repro.experiments import run_throughput
from repro.experiments._driver import cell_rng
from repro.io_models import (
    APPROACHES,
    DEFAULT_APPROACH_NAMES,
    DedicatedCores,
    DedicatedNodes,
    approach_names,
    register_approach,
    resolve_approach,
    resolve_approaches,
)
from repro.util import MB
from repro.util import seed_key as approach_seed_key


def test_registry_contains_all_four():
    assert set(approach_names()) == {
        "file-per-process",
        "collective",
        "damaris",
        "dedicated-nodes",
    }


def test_default_selection_is_the_papers_three():
    assert DEFAULT_APPROACH_NAMES == ("file-per-process", "collective", "damaris")
    assert tuple(a.name for a in APPROACHES) == DEFAULT_APPROACH_NAMES
    assert tuple(a.name for a in resolve_approaches(None)) == DEFAULT_APPROACH_NAMES


def test_resolve_approach_by_name_and_instance():
    damaris = resolve_approach("damaris")
    assert isinstance(damaris, DedicatedCores)
    assert resolve_approach(damaris) is damaris
    with pytest.raises(ValueError):
        resolve_approach("quantum-io")


def test_register_approach_rejects_duplicates():
    with pytest.raises(ValueError):
        register_approach(DedicatedNodes())


def test_seed_key_is_stable_and_name_derived():
    # The key depends on the name only — never on registration or
    # enumeration order — so extending the registry cannot shift streams.
    assert approach_seed_key("damaris") == approach_seed_key("damaris")
    assert approach_seed_key("damaris") != approach_seed_key("collective")
    a = cell_rng(0, 576, "damaris").random(4)
    b = cell_rng(0, 576, resolve_approach("damaris")).random(4)
    np.testing.assert_array_equal(a, b)


def test_streams_survive_reordering_and_subsets():
    full = run_throughput(ranks=1152, seed=9)
    reordered = run_throughput(
        ranks=1152, seed=9, approaches=["damaris", "file-per-process", "collective"]
    )
    solo = run_throughput(ranks=1152, seed=9, approaches=["damaris"])
    want = full.where(approach="damaris")[0].as_dict()
    assert reordered.where(approach="damaris")[0].as_dict() == want
    assert solo[0].as_dict() == want


def test_dedicated_nodes_geometry():
    approach = DedicatedNodes(group=16)
    ranks = 2304  # 192 Kraken nodes
    forwarders = approach.forwarders(KRAKEN, ranks)
    assert forwarders == 12  # ceil(192 / 17)
    assert approach.clients(KRAKEN, ranks) == ranks - forwarders * KRAKEN.cores_per_node
    too_small = DedicatedNodes(group=1)
    with pytest.raises(ValueError):
        too_small.clients(KRAKEN, KRAKEN.cores_per_node)  # one node, no room


def test_dedicated_nodes_iteration_shape():
    approach = DedicatedNodes()
    rng = np.random.default_rng(0)
    result = approach.run_iteration(KRAKEN, 2304, 45 * MB, rng)
    assert result.visible_times.size == approach.clients(KRAKEN, 2304)
    # Visible cost: slower than a node-local copy, far below a synchronous
    # write; the backend write overlaps with compute.
    copy = 45 * MB / KRAKEN.shm_bandwidth
    assert result.visible_times.mean() > copy
    assert result.visible_times.mean() < 30.0
    assert result.backend_busy_s > 0
    assert result.files_created == approach.forwarders(KRAKEN, 2304)
    assert result.bytes_written == pytest.approx(approach.clients(KRAKEN, 2304) * 45 * MB, rel=1e-9)


def test_dedicated_nodes_in_experiment_selection():
    table = run_throughput(ranks=2304, approaches=["damaris", "dedicated-nodes"], iterations=1)
    names = table.column("approach")
    assert names == ["damaris", "dedicated-nodes"]
    dn = table.where(approach="dedicated-nodes")[0]
    # Far above the collective plateau: few, very large, striped writes.
    assert dn["throughput_gb_s"] > 5.0
