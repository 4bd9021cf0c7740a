"""Figure 7: performance benefits of an FFT accelerator core.

The pipeline generate -> pipe -> FFT -> file in three configurations:
Linux with a software FFT, M3 with the same software FFT on standard
cores, and M3 with the FFT accelerator.  "the accelerator has a huge
performance benefit over the software version (about a factor of 30)"
and M3's fast abstractions keep the surrounding overhead small
(Section 5.8).
"""

from __future__ import annotations

from repro.eval.common import single
from repro.eval.report import render_table
from repro.linuxsim.machine import LinuxMachine
from repro.m3.system import M3System
from repro.workloads.fft import (
    FFT_ACCEL_BINARY,
    FFT_SW_BINARY,
    linux_fft_chain,
    linux_fft_setup,
    m3_fft_chain,
    m3_fft_setup,
)

CONFIGURATIONS = ["Linux", "M3", "M3+accelerator"]


def _pack(wall: int, ledger: dict) -> dict:
    fft = ledger.get("fft", 0)
    xfers = ledger.get("xfer", 0)
    return {
        "total": wall,
        "fft": fft,
        "xfers": xfers,
        "os": ledger.get("os", 0),
        "other": wall - fft - xfers,
    }


def run_linux() -> dict:
    machine = LinuxMachine()
    linux_fft_setup(machine)
    wall, ledger = machine.run_program(linux_fft_chain, name="fft-chain")
    return _pack(wall, ledger)


def run_m3(accelerated: bool) -> dict:
    accelerators = {"fft-accel": 1} if accelerated else None
    system = M3System(pe_count=5, accelerators=accelerators).boot()
    m3_fft_setup(system)
    binary = FFT_ACCEL_BINARY if accelerated else FFT_SW_BINARY
    wall, ledger = system.run_app(m3_fft_chain, binary, name="fft-chain")
    return _pack(wall, ledger)


def run() -> dict:
    """configuration -> {total, fft, xfers, os, other}."""
    return {
        "Linux": run_linux(),
        "M3": run_m3(accelerated=False),
        "M3+accelerator": run_m3(accelerated=True),
    }


def render(results: dict) -> str:
    """The ``results/fig7_accel.txt`` table for :func:`run`'s results."""
    rows = [
        (name, entry["total"], entry["fft"], entry["xfers"], entry["os"])
        for name, entry in results.items()
    ]
    return render_table(
        "Figure 7: FFT accelerator benefits (cycles)",
        ["configuration", "total", "fft", "xfers", "os"],
        rows,
    )


EVAL = single("fig7_accel", run, render)
