"""Unit and property tests for capabilities and the derivation tree."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.m3.kernel.capability import Capability, CapKind, CapTable, revoke


def _cap(kind=CapKind.MEM, obj="obj"):
    return Capability(kind, obj)


def test_insert_assigns_selectors_in_order():
    table = CapTable()
    assert table.insert(_cap()) == 0
    assert table.insert(_cap()) == 1
    assert len(table.caps()) == 2


def test_insert_at_explicit_selector():
    table = CapTable()
    assert table.insert(_cap(), selector=5) == 5
    assert table.insert(_cap()) == 6  # allocator moves past explicit slots
    with pytest.raises(ValueError):
        table.insert(_cap(), selector=5)


def test_get_checks_kind():
    table = CapTable()
    table.insert(_cap(CapKind.MEM))
    assert table.get(0, CapKind.MEM).obj == "obj"
    with pytest.raises(KeyError):
        table.get(0, CapKind.VPE)
    with pytest.raises(KeyError):
        table.get(99)


def test_double_insert_rejected():
    table_a, table_b = CapTable(), CapTable()
    cap = _cap()
    table_a.insert(cap)
    with pytest.raises(ValueError):
        table_b.insert(cap)


def test_derive_builds_tree():
    root = _cap()
    child = root.derive()
    grandchild = child.derive()
    assert child.parent is root
    assert grandchild in child.children
    assert set(root.subtree()) == {root, child, grandchild}


def test_derive_with_kind_override():
    root = _cap(CapKind.RECV)
    child = root.derive("service", kind=CapKind.SERVICE)
    assert child.kind == CapKind.SERVICE
    assert child.parent is root


def test_revoke_removes_subtree_from_all_tables():
    """"Revoke: Undo all grants of a capability recursively" (4.5.3)."""
    alice, bob, carol = CapTable(), CapTable(), CapTable()
    root = _cap()
    alice.insert(root)
    to_bob = root.derive()
    bob.insert(to_bob)
    to_carol = to_bob.derive()
    carol.insert(to_carol)
    removed = revoke(root)
    assert len(removed) == 3
    assert alice.caps() == bob.caps() == carol.caps() == []


def test_revoke_midtree_keeps_ancestors():
    alice, bob, carol = CapTable(), CapTable(), CapTable()
    root = _cap()
    alice.insert(root)
    to_bob = root.derive()
    bob.insert(to_bob)
    to_carol = to_bob.derive()
    carol.insert(to_carol)
    revoke(to_bob)
    assert len(alice.caps()) == 1
    assert bob.caps() == []
    assert carol.caps() == []
    assert root.children == []  # detached from the tree


@given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=60))
def test_revoke_exactly_removes_descendants(parent_choices):
    """Build a random derivation forest; revoking any node removes
    exactly its descendants and nothing else."""
    tables = [CapTable() for _ in range(4)]
    root = _cap()
    tables[0].insert(root)
    caps = [root]
    for i, choice in enumerate(parent_choices):
        parent = caps[choice % len(caps)]
        child = parent.derive()
        tables[(i + 1) % len(tables)].insert(child)
        caps.append(child)
    victim = caps[len(caps) // 2]
    expected_gone = set(victim.subtree())
    revoke(victim)
    for cap in caps:
        if cap in expected_gone:
            assert cap.table is None
        else:
            assert cap.table is not None
            # Tree invariant: no survivor references a revoked child.
            assert not any(child in expected_gone for child in cap.children)
