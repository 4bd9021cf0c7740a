"""PE time-multiplexing: running more VPEs than PEs.

Run with:  python examples/time_sharing.py

The paper's prototype dedicates a PE per VPE; Sections 3.3/7 sketch
context switching for when cores run out.  This example enables the
multiplexing extension and runs four workers on a system with a single
application PE: each worker gets the PE while the parent waits
(``wait_yield``), whose state is saved to a DRAM staging area and
restored afterwards.  The closing report shows what it cost.
"""

from repro.eval.report import render_table
from repro.m3.lib import serial
from repro.m3.lib.vpe import VPE
from repro.m3.system import M3System


def worker(env, index):
    yield env.compute(20_000)
    serial.get(env) << f"worker {index} ran on PE {env.pe.node}\n"
    return index * index


def parent(env):
    results = []
    for index in range(4):
        vpe = yield from VPE.create(env, f"worker{index}")
        yield from vpe.run(worker, index)
        # offer our PE while waiting: the kernel switches the worker in
        results.append((yield from vpe.wait_yield()))
    return results


def main():
    # Two PEs total: the kernel and one shared application PE.
    system = M3System(pe_count=2, multiplexing=True).boot(with_fs=False)
    results = system.run_app(parent, name="parent")
    print(f"4 workers on 1 application PE -> results {results}")
    for _t, _vpe, line in system.serial_log:
        print(" ", line)
    stats = system.stats()
    print(f"context switches performed: {stats['kernel.0.ctxsw.switches']}")
    print()
    print(render_table(f"System stats at cycle {system.sim.now:,}",
                       ["counter", "value"], list(stats.items())))


if __name__ == "__main__":
    main()
