"""Stateful property testing of the m3fs core against a reference model."""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.m3.services.m3fs.extents import total_bytes
from repro.m3.services.m3fs.fs import FsError, M3FS
from repro.m3.services.m3fs.superblock import SuperBlock
from tests.m3.test_bitmap import used

_names = st.sampled_from([f"n{i}" for i in range(8)])


class M3fsMachine(RuleBasedStateMachine):
    """Random namespace/allocation operations with a dict reference.

    The reference tracks the *namespace* (path -> kind, inode
    identity); m3fs-specific state (bitmaps, extents) is checked by
    invariants instead.
    """

    def __init__(self):
        super().__init__()
        self.fs = M3FS(SuperBlock(total_blocks=256, total_inodes=64),
                       append_blocks=4)
        #: path -> ("dir" | inode-identity-token)
        self.model: dict[str, object] = {"/": "dir"}

    def _parent_ok(self, path: str) -> bool:
        parent = path.rsplit("/", 1)[0] or "/"
        return self.model.get(parent) == "dir"

    # -- rules ---------------------------------------------------------------

    @rule(parent=_names, name=_names)
    def create_file(self, parent, name):
        path = f"/{parent}/{name}" if f"/{parent}" in self.model else f"/{name}"
        try:
            inode = self.fs.create(path)
        except FsError:
            assert path in self.model or not self._parent_ok(path)
            return
        assert path not in self.model and self._parent_ok(path)
        self.model[path] = ("file", inode.ino)

    @rule(name=_names)
    def make_dir(self, name):
        path = f"/{name}"
        try:
            self.fs.mkdir(path)
        except FsError:
            assert path in self.model
            return
        assert path not in self.model
        self.model[path] = "dir"

    @rule(name=_names, blocks=st.integers(min_value=1, max_value=8))
    def append(self, name, blocks):
        path = f"/{name}"
        entry = self.model.get(path)
        if not isinstance(entry, tuple):
            return
        inode = self.fs.resolve(path)
        used_before = used(self.fs.block_bitmap)
        try:
            extent = self.fs.append_extent(inode, blocks)
        except MemoryError:
            return
        assert 1 <= extent.block_count <= blocks
        assert used(self.fs.block_bitmap) == used_before + extent.block_count

    @rule(name=_names, size=st.integers(min_value=0, max_value=8 * 1024))
    def truncate(self, name, size):
        path = f"/{name}"
        entry = self.model.get(path)
        if not isinstance(entry, tuple):
            return
        inode = self.fs.resolve(path)
        capacity = total_bytes(inode.extents, self.fs.sb.block_size)
        size = min(size, capacity)
        self.fs.truncate(inode, size)
        assert inode.size == size

    @rule(name=_names)
    def unlink(self, name):
        path = f"/{name}"
        entry = self.model.get(path)
        try:
            self.fs.unlink(path)
        except FsError:
            missing = entry is None
            nonempty_dir = entry == "dir" and any(
                other.startswith(path + "/") for other in self.model
            )
            assert missing or nonempty_dir
            return
        assert entry is not None
        del self.model[path]

    # -- invariants -----------------------------------------------------------

    @invariant()
    def namespace_matches(self):
        for path, entry in self.model.items():
            inode = self.fs.resolve(path)
            if entry == "dir":
                assert inode.is_dir
            else:
                assert not inode.is_dir
                assert inode.ino == entry[1]

    @invariant()
    def block_accounting_is_exact(self):
        claimed = sum(
            extent.block_count
            for inode in self.fs.inodes.values()
            for extent in inode.extents
        )
        assert claimed == used(self.fs.block_bitmap)

    @invariant()
    def extents_are_disjoint(self):
        seen = set()
        for inode in self.fs.inodes.values():
            for extent in inode.extents:
                for block in range(extent.start_block,
                                   extent.start_block + extent.block_count):
                    assert block not in seen, "block claimed twice"
                    seen.add(block)

    @invariant()
    def link_counts_match_directory_entries(self):
        references: dict[int, int] = {}
        for inode in self.fs.inodes.values():
            if inode.is_dir:
                for child in inode.entries.values():
                    references[child] = references.get(child, 0) + 1
        for inode in self.fs.inodes.values():
            if not inode.is_dir:
                assert inode.links == references.get(inode.ino, 0)


M3fsStateful = M3fsMachine.TestCase
M3fsStateful.settings = settings(max_examples=30, deadline=None,
                                 stateful_step_count=40)
