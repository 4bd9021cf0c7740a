"""Fixtures for OS-level tests."""

import pytest

from repro.m3.system import M3System
from tests.m3.invariants import check_dtus_quiescent, check_kernel_tables

def _checked(request, system):
    """Yield ``system`` to the test, then assert the kernel's table
    invariants and DTU quiescence on whatever state the test left.  A
    test that kills the answering side of a transfer on purpose says so
    itself: ``@pytest.mark.leaves_unanswered("why")``."""
    yield system
    check_kernel_tables(system)
    if request.node.get_closest_marker("leaves_unanswered") is None:
        check_dtus_quiescent(system)


@pytest.fixture
def system(request):
    """A booted system without the filesystem service (fast)."""
    yield from _checked(request, M3System(pe_count=6).boot(with_fs=False))


@pytest.fixture
def fs_system(request):
    """A booted system with m3fs running."""
    yield from _checked(request, M3System(pe_count=6).boot(with_fs=True))
