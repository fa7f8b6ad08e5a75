"""DESIGN.md's "Adding an approach" recipe, run end to end.

An approach implements one draw routine, ``_draw``.  Every runner reaches
it through a public entry point: replicated runs through
``prepare_iteration``, the serial replication loop through
``run_iteration`` and the composer through ``plan_iteration``.
"""

import numpy as np
import pytest

from repro import io_models
from repro.engine import KRAKEN, RequestBatch
from repro.experiments import run_throughput
from repro.io_models import IOApproach, IterationPlan, IterationResult, register_approach
from repro.stats import run_replications
from repro.util import MB
from repro.workloads import Workload, run_composition


class BurstBuffer(IOApproach):
    """Each node drains its ranks into a local buffer, flushed as one stream."""

    name = "burst-buffer"

    def _draw(self, machine, ranks, data_per_rank, rng, arrivals, interference):
        offsets = np.zeros(ranks) if arrivals is None else np.asarray(arrivals, dtype=float)
        nodes = machine.nodes_for(ranks)
        # Every draw at a fixed point; no interference: the caller samples it.
        background = None if interference is None else interference.sample_background(machine, rng)
        osts = rng.permutation(nodes) % machine.ost_count
        start = float(offsets.max())
        batch = RequestBatch(arrival=start, ost=osts, nbytes=ranks / nodes * data_per_rank)
        copy = data_per_rank / machine.shm_bandwidth

        def finalize(done):
            return IterationResult(
                visible_times=np.full(ranks, copy),
                backend_wall_s=float(done.max()),
                backend_busy_s=float(done.max()) - start,
                bytes_written=ranks * data_per_rank,
                files_created=nodes,
            )

        return IterationPlan(
            batch=batch, large_writes=True, finalize=finalize, background=background
        )


@pytest.fixture
def burst_buffer(monkeypatch):
    # Registered through the public call, on a copy of the registry.
    monkeypatch.setattr(io_models, "_APPROACHES", dict(io_models._APPROACHES))
    return register_approach(BurstBuffer())


def test_an_approach_needs_only_its_draw_routine(burst_buffer):
    table = run_throughput(ranks=2304, approaches=["damaris", "burst-buffer"])
    assert table.column("approach") == ["damaris", "burst-buffer"]
    assert table.where(approach="burst-buffer")[0]["throughput_gb_s"] > 0.0

    cell = ("burst-buffer", KRAKEN, 576, 2, 45 * MB)
    serial = run_replications(*cell, seed=3, replications=2, batched=False)
    stacked = run_replications(*cell, seed=3, replications=2)
    for alone, together in zip(serial, stacked, strict=True):
        assert [r.backend_wall_s for r in alone] == [r.backend_wall_s for r in together]
        assert [r.backend_busy_s for r in alone] == [r.backend_busy_s for r in together]

    composed = run_composition(
        KRAKEN,
        [Workload("fg", 576, approach="burst-buffer"), Workload("bg", 1152)],
        2,
        period=60.0,
        seed=0,
    )
    assert [r.files_created for r in composed.results["fg"]] == [48, 48]


def test_an_approach_without_a_draw_routine_names_what_it_lacks():
    class Nothing(IOApproach):
        """Implements nothing."""

        name = "nothing"

    with pytest.raises(NotImplementedError, match=r"'nothing' \(Nothing\) must implement _draw\("):
        run_throughput(ranks=2304, approaches=[Nothing()])
