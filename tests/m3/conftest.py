"""Fixtures for OS-level tests."""

import pytest

from repro.m3.system import M3System
from tests.m3.invariants import check_kernel_tables

#: tests that leave their system broken on purpose: name -> why the
#: table invariants cannot hold at their teardown.
LEFT_BROKEN: dict[str, str] = {}


def _checked(request, system):
    """Yield ``system`` to the test, then assert the kernel's table
    invariants on whatever state the test left behind."""
    yield system
    if request.node.name not in LEFT_BROKEN:
        check_kernel_tables(system)


@pytest.fixture
def system(request):
    """A booted system without the filesystem service (fast)."""
    yield from _checked(request, M3System(pe_count=6).boot(with_fs=False))


@pytest.fixture
def fs_system(request):
    """A booted system with m3fs running."""
    yield from _checked(request, M3System(pe_count=6).boot(with_fs=True))
