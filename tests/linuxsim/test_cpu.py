"""The time-shared CPU: one owner at a time, handed over in queue order."""

from repro.linuxsim.cpu import Cpu
from repro.sim import Simulator


def test_an_acquire_during_a_handoff_queues_behind_it():
    """A releases to the queued B, whose switch takes 100 cycles; P asks
    for the CPU inside that switch.  P must queue behind B, not take the
    CPU that is already B's and run beside it."""
    sim = Simulator()
    cpu = Cpu(sim, switch_cycles=100)
    runs = []

    def program(who, arrive, hold):
        yield sim.delay(arrive)
        yield from cpu.acquire(who)
        start = sim.now
        yield sim.delay(hold)
        runs.append((who, start, sim.now))
        cpu.release(who)

    sim.process(program("A", 0, 50), "A")
    sim.process(program("B", 1, 10), "B")
    sim.process(program("P", 60, 10), "P")
    sim.run()

    assert runs == [("A", 0, 50), ("B", 150, 160), ("P", 260, 270)]
