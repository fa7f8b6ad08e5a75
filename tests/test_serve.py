"""The solve service: canonical keys, memo cache, coalesced solving.

The service's contract is threefold: its canonical request hash is a
pure, restart-stable function of the solve inputs (pinned digests guard
the byte layout); its responses are bit-identical to serial per-request
solving at any arrival order or flush interleaving (hypothesis drives
that); and its hit/miss accounting reflects exactly which cells ran a
solver.  The overlapping-stream smoke test at the bottom is what the CI
serve job executes.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.engine.batching as batching
from repro.engine import RequestBatch, resolve_machine, solve
from repro.serve import SolveCache, SolveRequest, SolveService, coalesce, demo_stream, request_key
from repro.util import MB

_SETTINGS = dict(deadline=None, max_examples=15)

GRID = resolve_machine("grid5000")

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _pinned_batch() -> RequestBatch:
    return RequestBatch(
        arrival=np.array([0.0, 0.5, 1.25]),
        ost=np.array([0, 5, 29], dtype=np.int64),
        nbytes=np.array([1048576.0, 2097152.0, 4194304.0]),
    )


def _random_request(seed: int, n: int) -> SolveRequest:
    rng = np.random.default_rng(seed)
    batch = RequestBatch(
        arrival=np.sort(rng.uniform(0.0, 10.0, n)),
        ost=rng.integers(0, GRID.ost_count * 2, n),
        nbytes=rng.uniform(0.1 * MB, 64 * MB, n),
    )
    background = rng.poisson(1.0, GRID.ost_count).astype(float) if seed % 2 else None
    return SolveRequest(GRID, batch, background=background, large_writes=bool(seed % 3 == 0))


# ---------------------------------------------------------------------------
# Canonical keys
# ---------------------------------------------------------------------------


def test_request_key_digests_are_pinned():
    """Restart stability: the digest layout may only change with KEY_SCHEMA.

    These constants were computed once from the documented layout
    (sorted-key JSON header + machine JSON + little-endian array bytes);
    any drift silently invalidates every persisted or remembered key.
    """
    batch = _pinned_batch()
    assert (
        request_key(GRID, batch, None, False)
        == "5b27727f271316435893b46547e8a6b24e5e3cba142178d05f947fb1e13b4ab9"
    )
    assert (
        request_key(GRID, batch, np.zeros(GRID.ost_count), False)
        == "2231753c9f0ec6d2bcd21f24f3292fcd2f25d0a1212b8da61b7e5af12c3b782a"
    )
    assert (
        request_key(GRID, batch, None, True)
        == "c5209a2b3a4baa6409c5c6ecb1f5f5280f02d429ebf88f10bdd09f97eb806de0"
    )


def test_request_key_identity_semantics():
    batch = _pinned_batch()
    base = request_key(GRID, batch, None, False)
    # OST ids are normalised modulo the machine's OST count.
    shifted = RequestBatch(batch.arrival, batch.ost + GRID.ost_count, batch.nbytes)
    assert request_key(GRID, shifted, None, False) == base
    # ... but everything that reaches the arithmetic separates cells.
    other = RequestBatch(batch.arrival, batch.ost, batch.nbytes * 2)
    assert request_key(GRID, other, None, False) != base
    kraken = resolve_machine("kraken")
    assert request_key(kraken, batch, None, False) != base
    # A None background is its own marker, not an implicit zero array.
    zeros = request_key(GRID, batch, np.zeros(GRID.ost_count), False)
    assert zeros != base


def test_request_key_memo_matches_fresh_digest():
    request = _random_request(11, 40)
    first = request.key()
    assert request.key() == first  # memoized path
    assert first == request_key(
        request.machine, request.batch, request.background, request.large_writes
    )


def _layout_v3_key(machine, batch, background, large_writes) -> str:
    """Key layout v3 spelled out: sorted-key JSON header, the machine's
    sorted-key JSON with every field as its annotated type, then the
    arrays as explicit little-endian bytes."""
    header = {
        "schema": "repro-serve-key-v3",
        "large_writes": bool(large_writes),
        "n": len(batch),
        "background": background is not None,
    }
    digest = hashlib.sha256(json.dumps(header, sort_keys=True).encode("utf-8"))
    casts = {"str": str, "int": int, "float": float}
    fields = {f.name: casts[f.type](getattr(machine, f.name)) for f in dataclasses.fields(machine)}
    digest.update(json.dumps(fields, sort_keys=True).encode("utf-8"))
    digest.update(np.ascontiguousarray(batch.arrival, dtype="<f8").tobytes())
    digest.update(np.ascontiguousarray(batch.ost % machine.ost_count, dtype="<i8").tobytes())
    digest.update(np.ascontiguousarray(batch.nbytes, dtype="<f8").tobytes())
    if background is not None:
        digest.update(np.ascontiguousarray(background, dtype="<f8").tobytes())
    return digest.hexdigest()


def test_request_key_matches_layout_v3_on_random_cells():
    # Two machines interleaved and few distinct lengths, so every cached
    # prefix is reused by later cells: a prefix that kept a previous
    # cell's bytes would change their keys.  The third machine equals
    # grid5000 with its integer bandwidth spelled as a float, so it
    # shares grid5000's cache entries and must share its text too.
    rng = np.random.default_rng(20261018)
    twin = GRID.with_overrides(ost_bandwidth=float(GRID.ost_bandwidth))
    machines = (GRID, resolve_machine("kraken"), twin)
    for case in range(240):
        machine = machines[case % 3]
        osts = machine.ost_count
        n = int(rng.choice([1, 3, 128]))
        # OST ids beyond ost_count and negative ones normalise modulo it.
        fields = (
            rng.uniform(0.0, 10.0, n),
            rng.integers(-2 * osts, 3 * osts, n),
            rng.uniform(0.0, 64 * MB, n),
        )
        # A scalar field broadcasts to a stride-0 array of the batch length.
        arrival, ost, nbytes = (f[0] if rng.random() < 0.2 else f for f in fields)
        batch = RequestBatch(arrival=arrival, ost=ost, nbytes=nbytes)
        background = None
        if rng.random() < 0.5:
            background = rng.poisson(1.0, osts) * rng.choice([1.0, 0.37])
        large = bool(rng.random() < 0.5)
        want = _layout_v3_key(machine, batch, background, large)
        assert request_key(machine, batch, background, large) == want, case
        assert SolveRequest(machine, batch, background, large).key() == want, case


_SPELLING_PROBE = """
import sys
from repro.engine import RequestBatch, resolve_machine
from repro.serve import request_key
grid = resolve_machine("grid5000")
twin = grid.with_overrides(ost_bandwidth=float(grid.ost_bandwidth))
first, second = (grid, twin) if sys.argv[1] == "int" else (twin, grid)
batch = RequestBatch([0.0, 0.5], [0, 5], [1048576.0, 2097152.0])
print(request_key(first, batch, None, False), request_key(second, batch, None, False))
"""


def test_request_key_ignores_which_spelling_a_process_hashed_first():
    # grid5000's bandwidth is an int; an equal machine may spell it as a
    # float.  The key caches per equal machine, so a process that hashed
    # one spelling first must give the key a process that hashed the
    # other first gives: two fresh interpreters, opposite orders.
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    keys = set()
    for first in ("int", "float"):
        done = subprocess.run(
            [sys.executable, "-c", _SPELLING_PROBE, first],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        keys.update(done.stdout.split())
    assert len(keys) == 1, keys


def test_solve_request_key_is_a_memoized_method():
    # Tracers wrap ``SolveRequest.key`` on the class, at submit time.
    assert callable(vars(SolveRequest)["key"])
    request = _random_request(5, 32)
    first = request.key()
    assert request.key() is first


# ---------------------------------------------------------------------------
# Cache accounting
# ---------------------------------------------------------------------------


def test_cache_hit_miss_accounting_and_immutability():
    cache = SolveCache()
    assert cache.get("a") is None
    stored = cache.put("a", np.array([1.0, 2.0]))
    assert not stored.flags.writeable
    again = cache.put("a", np.array([9.0, 9.0]))  # idempotent re-put
    np.testing.assert_array_equal(again, [1.0, 2.0])
    np.testing.assert_array_equal(cache.get("a"), [1.0, 2.0])
    assert "a" in cache and "b" not in cache  # membership: no accounting
    stats = cache.stats
    assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
    assert stats.lookups == 2 and stats.hit_rate == pytest.approx(0.5)


def test_service_accounting_separates_hits_coalesced_and_solves():
    requests = [_random_request(s, 30) for s in (1, 2, 3)]
    service = SolveService()
    for request in requests + requests:  # same flush: 3 coalesced duplicates
        service.submit(request)
    first = service.flush()
    assert [r.cache_hit for r in first] == [False, False, False, True, True, True]
    for request in requests:  # second flush: all memoized
        service.submit(request)
    second = service.flush()
    assert all(r.cache_hit for r in second)
    stats = service.stats
    assert stats.submitted == stats.served == 9
    assert stats.solved == 3 and stats.coalesced == 3
    assert stats.hit_rate == pytest.approx(6 / 9)
    assert (stats.cache.hits, stats.cache.misses) == (3, 3)


# ---------------------------------------------------------------------------
# Bit-identity
# ---------------------------------------------------------------------------


@settings(**_SETTINGS)
@given(
    seed=seeds,
    n=st.integers(min_value=1, max_value=120),
    order=st.permutations(range(8)),
    flush_after=st.sets(st.integers(min_value=0, max_value=7)),
)
def test_service_bit_identical_to_serial(seed, n, order, flush_after):
    """Any arrival order and any flush interleaving: the same bytes.

    Every cell is submitted twice, so each drawn interleaving mixes
    fresh solves, same-flush duplicates and cross-flush cache hits.
    """
    requests = [_random_request(seed + offset, n) for offset in range(4)]
    serial = [
        solve(r.machine, r.batch, background=r.background, large_writes=r.large_writes)
        for r in requests
    ]
    stream = requests + requests
    service = SolveService()
    submitted: list[int] = []
    responses = []
    for position, index in enumerate(order):
        service.submit(stream[index])
        submitted.append(index % len(requests))
        if position in flush_after:
            responses.extend(service.flush())
    responses.extend(service.flush())
    for index, response in zip(submitted, responses, strict=True):
        np.testing.assert_array_equal(response.done, serial[index])
    assert service.stats.solved == len(requests)


def test_cached_responses_identical_to_uncached():
    requests = [_random_request(s, 80) for s in range(6)]
    service = SolveService()
    sweeps = []
    for _ in range(2):  # second sweep served entirely from cache
        for request in requests:
            service.submit(request)
        sweeps.append(service.flush())
    assert [r.cache_hit for r in sweeps[1]] == [True] * len(requests)
    for cached, fresh in zip(sweeps[1], sweeps[0], strict=True):
        np.testing.assert_array_equal(cached.done, fresh.done)
    assert service.stats.solved == len(requests)


@pytest.mark.parametrize(
    ("background", "message"),
    [
        (np.full(GRID.ost_count, np.nan), r"background\[0\] must be finite and >= 0, got nan"),
        (np.full(GRID.ost_count, -1.0), r"background\[0\] must be finite and >= 0, got -1.0"),
        (np.zeros(3), r"background must hold one entry per OST"),
    ],
    ids=["nan", "negative", "wrong-length"],
)
def test_bad_background_is_rejected_before_it_can_spoil_a_flush(background, message):
    # A bad cell once entered the queue, and flush() raised only after
    # emptying it: the good cell queued beside it was lost.
    good = _random_request(1, 30)
    service = SolveService()
    service.submit(good)
    with pytest.raises(ValueError, match=message):
        SolveRequest(GRID, good.batch, background=background)
    assert service.pending == 1
    (response,) = service.flush()
    want = solve(GRID, good.batch, background=good.background, large_writes=good.large_writes)
    np.testing.assert_array_equal(response.done, want)
    assert (service.stats.solved, service.stats.cache.misses) == (1, 1)


@pytest.mark.parametrize("with_backgrounds", [False, True], ids=["quiet", "backgrounds"])
@pytest.mark.parametrize("cap", [1, 2, 3])
def test_flush_chunks_its_stacks_bit_identically(monkeypatch, cap, with_backgrounds):
    # A flush makes one solve_many call per bucket, and the engine caps
    # each call it makes: chunking a bucket must not change a bit of any
    # cell, and every engine call must respect the cap.
    kraken = resolve_machine("kraken")
    units = cap * (80 + kraken.ost_count)  # ``cap`` cells of 80 writes
    calls = []

    def counting_solve(machine, batch, **kwargs):
        calls.append((len(batch), machine.ost_count))
        return solve(machine, batch, **kwargs)

    monkeypatch.setattr(batching, "_MAX_STACK_UNITS", units)
    monkeypatch.setattr(batching, "solve", counting_solve)
    rng = np.random.default_rng(7)
    requests = []
    for index in range(7):
        batch = RequestBatch(
            arrival=rng.uniform(0.0, 5.0, 80),
            ost=rng.integers(0, kraken.ost_count, 80),
            nbytes=rng.uniform(MB, 64 * MB, 80),
        )
        background = None
        if with_backgrounds and index % 3 != 1:
            background = rng.poisson(1.0, kraken.ost_count) * rng.choice([1.0, 0.37])
        # Six small-write cells and one large-write cell: two buckets.
        requests.append(SolveRequest(kraken, batch, background, large_writes=index == 3))
    service = SolveService()
    for request in requests:
        service.submit(request)
    responses = service.flush()
    stacks = [osts // kraken.ost_count for _, osts in calls]
    assert stacks == [min(cap, size - start) for size in (6, 1) for start in range(0, size, cap)]
    assert all(n + osts <= units for n, osts in calls)
    for request, response in zip(requests, responses, strict=True):
        want = solve(
            kraken,
            request.batch,
            background=request.background,
            large_writes=request.large_writes,
        )
        assert response.done.dtype == want.dtype
        np.testing.assert_array_equal(response.done, want)


def test_flush_interleaving_cannot_change_results():
    requests = [_random_request(s, 50) for s in range(5)]
    one_flush = SolveService()
    for request in requests:
        one_flush.submit(request)
    together = {r.key: r.done for r in one_flush.flush()}
    per_request = SolveService()
    for request in requests:
        per_request.submit(request)
        (response,) = per_request.flush()
        np.testing.assert_array_equal(response.done, together[response.key])


# ---------------------------------------------------------------------------
# Coalescing
# ---------------------------------------------------------------------------


def test_coalesce_groups_by_machine_and_write_class():
    kraken = resolve_machine("kraken")
    cells = []
    for index, (machine, large) in enumerate(
        [(GRID, False), (GRID, True), (kraken, False), (GRID, False)]
    ):
        request = SolveRequest(machine, _pinned_batch(), large_writes=large)
        cells.append((f"k{index}", request))
    buckets = coalesce(cells)
    assert [b.keys for b in buckets] == [("k0", "k3"), ("k1",), ("k2",)]
    assert [(b.machine is GRID, b.large_writes) for b in buckets] == [
        (True, False),
        (True, True),
        (False, False),
    ]


def test_service_matches_per_cell_solving_on_an_exact_tie():
    # On every Kraken OST a second 45 MiB write arrives the instant the
    # first completes at 90 MiB/s.  Four distinct cells (OST ids rotated)
    # coalesce into one stack of 1344 virtual OSTs.
    kraken = resolve_machine("kraken")
    lanes = np.arange(kraken.ost_count)
    cells = [
        RequestBatch(
            arrival=np.repeat([0.2425, 0.7425], kraken.ost_count),
            ost=np.concatenate([lanes, lanes]) + shift,
            nbytes=45 * MB,
        )
        for shift in range(4)
    ]
    service = SolveService()
    for batch in cells:
        service.submit(SolveRequest(kraken, batch))
    responses = service.flush()
    assert service.stats.solved == 4
    for batch, response in zip(cells, responses, strict=True):
        np.testing.assert_array_equal(response.done, solve(kraken, batch, large_writes=False))
        np.testing.assert_array_equal(
            response.done, solve(kraken, batch, large_writes=False, backend="reference")
        )


# ---------------------------------------------------------------------------
# The ``python -m repro serve`` subcommand.
# ---------------------------------------------------------------------------


def test_cli_serve_subcommand_compares_inline(capsys):
    from repro.cli import main

    code = main(
        ["serve", "--cells", "4", "--passes", "4", "--ranks", "24", "--compare-inline"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "bit-identical to inline solving" in out
    assert "requests_per_s" in out


def test_cli_serve_backend_scopes_the_service(capsys):
    # The inline side pins --backend per call, and the two backends differ
    # in the last bits on these cells, so a match means the service solved
    # on the chosen backend too; the scope ends with the command.
    from repro.cli import main
    from repro.engine import default_backend

    args = ["--cells", "4", "--passes", "2", "--ranks", "24", "--backend", "reference"]
    code = main(["serve", *args, "--compare-inline"])
    assert code == 0
    assert "bit-identical to inline solving" in capsys.readouterr().out
    assert default_backend() == "vectorized"


# ---------------------------------------------------------------------------
# The CI smoke contract: ~100 overlapping requests, in-process.
# ---------------------------------------------------------------------------


def test_serve_smoke_overlapping_stream():
    stream = demo_stream("grid5000", cells=13, passes=8, ranks=48, seed=0)
    assert len(stream) == 104
    serial = [
        solve(r.machine, r.batch, background=r.background, large_writes=r.large_writes)
        for r in stream
    ]
    service = SolveService()
    for request in stream:
        service.submit(request)
    responses = service.flush()
    for response, want in zip(responses, serial, strict=True):
        np.testing.assert_array_equal(response.done, want)
    stats = service.stats
    assert stats.solved == 13
    assert stats.hit_rate > 0.8  # 7 of 8 passes served without a solver
