"""Unit tests for core types."""

import pytest

from repro import params
from repro.hw import CORE_TYPES
from repro.hw.core import FFT_ACCEL, FFT_ASIC, XTENSA


def test_core_registry_contains_paper_types():
    assert {"xtensa", "fft-accel", "fft-asic"} <= set(CORE_TYPES)


def test_fft_accelerator_speedup_factor():
    """Section 5.8: "about a factor of 30" over the software FFT."""
    nbytes = 32 * 1024
    software = XTENSA.cycles_for("fft", nbytes)
    accelerated = FFT_ACCEL.cycles_for("fft", nbytes)
    assert software / accelerated == pytest.approx(params.FFT_ACCEL_SPEEDUP, rel=0.01)


def test_asic_refuses_general_purpose_work():
    assert FFT_ASIC.cycles_for("fft", 100) >= 1
    with pytest.raises(ValueError):
        FFT_ASIC.cycles_for("sort", 100)


def test_general_purpose_core_needs_cost_entry():
    with pytest.raises(KeyError):
        XTENSA.cycles_for("unknown-op", 10)


def test_zero_bytes_still_costs_a_cycle():
    assert XTENSA.cycles_for("fft", 0) == 1
