"""Ablation benchmarks: design-choice claims made in the paper's prose.

See :mod:`repro.eval.ablations` for what each sweep probes.
"""

from repro.eval import ablations
from benchmarks.conftest import assert_committed


def test_buffer_size_sweep(benchmark):
    """"M3 benefits from larger buffer sizes until all available space
    in the SPM is used" (Section 5.4)."""
    rows = benchmark.pedantic(ablations.buffer_size_sweep, rounds=1,
                              iterations=1)
    times = [cycles for _size, cycles in rows]
    assert all(a > b for a, b in zip(times, times[1:]))  # strictly better
    # ...but with diminishing returns: the last doubling gains far less
    # than the first one.
    first_gain = times[0] - times[1]
    last_gain = times[-2] - times[-1]
    assert last_gain < first_gain / 4
    assert_committed("abl_buffer_size", ablations.buffer_size_table(rows))


def test_pipe_slot_sweep(benchmark):
    """One ring slot serialises the pipe ends; more slots pipeline them."""
    rows = benchmark.pedantic(ablations.pipe_slot_sweep, rounds=1,
                              iterations=1)
    by_slots = dict(rows)
    assert by_slots[1] > by_slots[4] > by_slots[8] * 0.99
    assert by_slots[1] / by_slots[16] > 1.5  # pipelining pays
    assert_committed("abl_pipe_slots", ablations.pipe_slot_table(rows))


def test_hop_latency_sweep(benchmark):
    """Syscall cost grows (mildly) with NoC hop latency."""
    rows = benchmark.pedantic(ablations.hop_latency_sweep, rounds=1,
                              iterations=1)
    times = [cycles for _hop, cycles in rows]
    assert all(a <= b for a, b in zip(times, times[1:]))
    assert times[-1] > times[0]
    # Even a slow NoC keeps the syscall well under Linux's 410 cycles:
    # the software path dominates, not the wire.
    assert times[-1] < 410
    assert_committed("abl_hop_latency", ablations.hop_latency_table(rows))


def test_placement_sweep(benchmark):
    """Placing an app farther from the kernel costs hop cycles."""
    rows = benchmark.pedantic(ablations.placement_sweep, rounds=1,
                              iterations=1)
    times = [cycles for _node, cycles in rows]
    assert times[-1] > times[0]
    assert all(a <= b for a, b in zip(times, times[1:]))
    assert_committed("abl_placement", ablations.placement_table(rows))


def test_multiplexing_tradeoff(benchmark):
    """Section 3.4's trade: dedicated PEs are faster; a shared PE costs
    wall time (context switches) but far fewer cores."""
    trade = benchmark.pedantic(ablations.multiplexing_tradeoff, rounds=1,
                               iterations=1)
    dedicated = trade["dedicated"]
    shared = trade["shared"]
    assert dedicated["wall"] < shared["wall"]
    assert shared["pes"] < dedicated["pes"]
    # The shared run must pay real switch costs (2 per worker at least).
    assert shared["switches"] >= 2 * ablations.WORKER_COUNT
    # But it is not pathological: bounded by serialisation + switches.
    assert shared["wall"] < 8 * dedicated["wall"]
    assert_committed("abl_multiplexing", ablations.multiplexing_table(trade))


def test_cache_vs_bulk(benchmark):
    """Section 7's cache extension vs the prototype's SPM+bulk model:
    bulk DTU transfers win for streaming, caches win for hot sets."""
    results = benchmark.pedantic(ablations.cache_vs_bulk, rounds=1,
                                 iterations=1)
    assert results["stream_bulk"] < results["stream_cached"] / 5
    assert results["hot_cached"] < results["hot_bulk"]
    assert_committed("abl_cache", ablations.cache_table(results))


def test_multi_fs_instances(benchmark):
    """Section 7 future work: additional m3fs instances recover the
    scalability the single instance loses in Figure 6's find run."""
    rows = benchmark.pedantic(ablations.multi_fs_sweep, rounds=1,
                              iterations=1)
    by_servers = dict(rows)
    assert by_servers[2] < 0.7 * by_servers[1]
    assert by_servers[4] < by_servers[2]
    assert_committed("abl_multi_fs", ablations.multi_fs_table(rows))
