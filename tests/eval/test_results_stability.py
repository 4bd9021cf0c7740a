"""Zero-overhead contract, wired as assertions.

The telemetry plane must be invisible until enabled: with ``obs`` off
(and with ``obs`` on but telemetry never attached, as in the autoscale
eval) the instrumented hot paths take the same single ``is None``
branch they always did, and the committed results files regenerate
byte-identically.  CI double-runs the evals too, but these assertions
catch a contract break at ``pytest`` time, before any results file is
rewritten.

The three evals here cross every instrumented layer: traffic (loadgen
counters + latency histogram + NoC/DTU series), autoscale (the
controller's event log under ``policy="depth"``), and domain_failover
(the heartbeat verdict path that also hosts the flight-recorder
trigger).
"""

import pytest

from repro.eval import autoscale, runall, telemetry, traffic


@pytest.mark.parametrize("name", ["traffic", "autoscale", "domain_failover"])
def test_eval_regenerates_committed_bytes(name):
    for filename, content in runall.BY_NAME[name].run().items():
        committed = (runall.RESULTS_DIR / filename).read_text()
        assert content == committed, (
            f"{filename} drifted from the committed bytes — the "
            f"telemetry plane leaked into an un-instrumented run"
        )


@pytest.mark.parametrize("module", [traffic, autoscale, telemetry],
                         ids=["traffic", "autoscale", "telemetry"])
def test_run_takes_no_seed_it_would_ignore(module):
    """Tombstone: these three accepted ``seed=`` and discarded it, so
    ``run(seed=7)`` silently returned default-seed numbers."""
    with pytest.raises(TypeError):
        module.run(seed=7)
