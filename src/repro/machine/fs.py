"""A deterministic in-guest filesystem over the virtual disk.

The paper replicates each guest VM's **entire disk image** so that all
replicas see identical disk state (Sec. V, VII-B).  This module makes
that concrete: a small filesystem whose state is a pure function of the
operation sequence, running over the guest disk interface -- so three
replicas of a file-serving guest hold bit-identical trees, caches and
block maps at every instruction.

Model (ext2-ish, simplified):

- a tree of directories and regular files; inodes carry size, mode and
  mtime (mtime in *virtual* time -- guests cannot see real time);
- data lives in fixed-size blocks; reads miss to the disk per uncached
  block range, hits are free;
- an LRU buffer cache over (inode, block) pairs;
- metadata mutations (create/setattr/truncate) commit through a
  one-block journal write before completing (NFS stable semantics);
- data writes are write-behind: the op completes after the journal
  commit, dirty blocks flush lazily.

All I/O completion flows through guest callbacks, keeping the whole
thing replica-deterministic under StopWatch.
"""

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

BLOCK_SIZE = 4096


class FileSystemError(Exception):
    """Path resolution or semantic failure (ENOENT, EEXIST, EISDIR...)."""


class Inode:
    """One file or directory.

    Inode ids are allocated by the owning filesystem (never from global
    state) so that replicas allocate identical ids.
    """

    def __init__(self, kind: str, inode_id: int, mode: int = 0o644):
        self.inode_id = inode_id
        self.kind = kind                 # "file" | "dir"
        self.mode = mode
        self.size = 0
        self.mtime_virt = 0.0
        self.children: Dict[str, "Inode"] = {} if kind == "dir" else None

    @property
    def is_dir(self) -> bool:
        return self.kind == "dir"

    def __repr__(self) -> str:
        return f"<Inode {self.inode_id} {self.kind} size={self.size}>"


class SimpleFileSystem:
    """The filesystem instance for one guest replica."""

    def __init__(self, guest, cache_blocks: int = 2048):
        if cache_blocks < 1:
            raise ValueError(f"cache_blocks must be >= 1, got {cache_blocks}")
        self.guest = guest
        self._next_inode_id = 1
        self.root = Inode("dir", self._alloc_id(), mode=0o755)
        self.cache_capacity = cache_blocks
        #: LRU over (inode_id, block_index); value True = dirty
        self._cache: "OrderedDict[Tuple[int, int], bool]" = OrderedDict()
        self.stats = {
            "lookups": 0, "creates": 0, "reads": 0, "writes": 0,
            "setattrs": 0, "getattrs": 0,
            "cache_hits": 0, "cache_misses": 0,
            "journal_commits": 0, "flushes": 0,
        }

    def _alloc_id(self) -> int:
        inode_id = self._next_inode_id
        self._next_inode_id += 1
        return inode_id

    # ------------------------------------------------------------------
    # path handling (synchronous, in-memory -- directory data is assumed
    # resident, as it would be for a warm dentry cache)
    # ------------------------------------------------------------------
    @staticmethod
    def _split(path: str) -> List[str]:
        parts = [part for part in path.split("/") if part]
        if not parts and path.strip("/") != "":
            raise FileSystemError(f"bad path {path!r}")
        return parts

    def _walk(self, parts: List[str]) -> Inode:
        node = self.root
        for part in parts:
            if not node.is_dir:
                raise FileSystemError(f"{part!r}: not a directory")
            child = node.children.get(part)
            if child is None:
                raise FileSystemError(f"{part!r}: no such file or directory")
            node = child
        return node

    def lookup(self, path: str) -> Inode:
        """Resolve a path (the NFS ``lookup`` op)."""
        self.stats["lookups"] += 1
        return self._walk(self._split(path))

    def exists(self, path: str) -> bool:
        try:
            self._walk(self._split(path))
            return True
        except FileSystemError:
            return False

    def getattr(self, path: str) -> dict:
        """Attribute read (pure -- attribute cache hit)."""
        self.stats["getattrs"] += 1
        inode = self._walk(self._split(path))
        return {"inode": inode.inode_id, "kind": inode.kind,
                "mode": inode.mode, "size": inode.size,
                "mtime": inode.mtime_virt}

    # ------------------------------------------------------------------
    # cache
    # ------------------------------------------------------------------
    def _touch_block(self, key: Tuple[int, int], dirty: bool) -> None:
        if key in self._cache:
            dirty = dirty or self._cache[key]
            self._cache.pop(key)
        self._cache[key] = dirty
        while len(self._cache) > self.cache_capacity:
            _, was_dirty = self._cache.popitem(last=False)
            if was_dirty:
                # evicting a dirty block triggers a background flush
                self.stats["flushes"] += 1
                self.guest.disk_write(1, lambda: None)

    def cached(self, inode: Inode, block: int) -> bool:
        return (inode.inode_id, block) in self._cache

    # ------------------------------------------------------------------
    # disk-image preloading (no I/O: the image arrives pre-populated,
    # exactly like the replicated disk image of Sec. VII-B)
    # ------------------------------------------------------------------
    def preload_file(self, path: str, size: int,
                     mode: int = 0o644) -> Inode:
        """Install a file directly into the tree, bypassing the journal."""
        if size < 0:
            raise FileSystemError("negative size")
        parts = self._split(path)
        if not parts:
            raise FileSystemError("cannot preload the root")
        node = self.root
        for part in parts[:-1]:
            child = node.children.get(part)
            if child is None:
                child = Inode("dir", self._alloc_id(), mode=0o755)
                node.children[part] = child
            node = child
        if parts[-1] in node.children:
            raise FileSystemError(f"{path!r}: already exists")
        inode = Inode("file", self._alloc_id(), mode=mode)
        inode.size = size
        node.children[parts[-1]] = inode
        return inode

    # ------------------------------------------------------------------
    # mutations (journalled)
    # ------------------------------------------------------------------
    def _journal(self, fn: Callable, *args) -> None:
        self.stats["journal_commits"] += 1
        self.guest.disk_write(1, fn, *args)

    def mkdir(self, path: str, fn: Callable, mode: int = 0o755) -> None:
        self._create_node(path, "dir", mode, fn)

    def create(self, path: str, fn: Callable, mode: int = 0o644) -> None:
        """Create an empty regular file; ``fn(inode)`` after the journal
        commit (the NFS ``create`` op)."""
        self._create_node(path, "file", mode, fn)

    def _create_node(self, path: str, kind: str, mode: int,
                     fn: Callable) -> None:
        parts = self._split(path)
        if not parts:
            raise FileSystemError("cannot create the root")
        parent = self._walk(parts[:-1])
        if not parent.is_dir:
            raise FileSystemError(f"{path!r}: parent is not a directory")
        if parts[-1] in parent.children:
            raise FileSystemError(f"{path!r}: already exists")
        self.stats["creates"] += 1
        inode = Inode(kind, self._alloc_id(), mode=mode)
        inode.mtime_virt = self.guest.now()
        parent.children[parts[-1]] = inode
        parent.mtime_virt = inode.mtime_virt
        self._journal(fn, inode)

    def setattr(self, path: str, fn: Callable,
                mode: Optional[int] = None,
                truncate_to: Optional[int] = None) -> None:
        """Change attributes; ``fn(inode)`` after the journal commit."""
        inode = self._walk(self._split(path))
        self.stats["setattrs"] += 1
        if mode is not None:
            inode.mode = mode
        if truncate_to is not None:
            if truncate_to < 0:
                raise FileSystemError("negative truncate length")
            if inode.is_dir:
                raise FileSystemError(f"{path!r}: is a directory")
            inode.size = truncate_to
        inode.mtime_virt = self.guest.now()
        self._journal(fn, inode)

    def unlink(self, path: str, fn: Callable) -> None:
        parts = self._split(path)
        if not parts:
            raise FileSystemError("cannot unlink the root")
        parent = self._walk(parts[:-1])
        child = parent.children.get(parts[-1])
        if child is None:
            raise FileSystemError(f"{path!r}: no such file or directory")
        if child.is_dir and child.children:
            raise FileSystemError(f"{path!r}: directory not empty")
        del parent.children[parts[-1]]
        parent.mtime_virt = self.guest.now()
        # drop the victim's cached blocks
        doomed = [key for key in self._cache if key[0] == child.inode_id]
        for key in doomed:
            del self._cache[key]
        self._journal(fn, child)

    # ------------------------------------------------------------------
    # data I/O
    # ------------------------------------------------------------------
    def read(self, path: str, offset: int, length: int,
             fn: Callable) -> None:
        """Read a byte range; ``fn(bytes_read)`` when the data is in the
        guest's buffers (cache hits complete without disk I/O)."""
        if offset < 0 or length < 0:
            raise FileSystemError("negative offset or length")
        inode = self._walk(self._split(path))
        if inode.is_dir:
            raise FileSystemError(f"{path!r}: is a directory")
        self.stats["reads"] += 1
        available = max(0, inode.size - offset)
        count = min(length, available)
        if count == 0:
            fn(0)
            return
        first = offset // BLOCK_SIZE
        last = (offset + count - 1) // BLOCK_SIZE
        missing = 0
        for block in range(first, last + 1):
            key = (inode.inode_id, block)
            if key in self._cache:
                self.stats["cache_hits"] += 1
                self._touch_block(key, dirty=False)
            else:
                self.stats["cache_misses"] += 1
                missing += 1
                self._touch_block(key, dirty=False)
        if missing == 0:
            fn(count)
        else:
            self.guest.disk_read(missing, fn, count)

    def write(self, path: str, offset: int, length: int,
              fn: Callable) -> None:
        """Write a byte range; write-behind data, journalled metadata.
        ``fn(bytes_written)`` after the journal commit."""
        if offset < 0 or length <= 0:
            raise FileSystemError("bad offset or length")
        inode = self._walk(self._split(path))
        if inode.is_dir:
            raise FileSystemError(f"{path!r}: is a directory")
        self.stats["writes"] += 1
        end = offset + length
        first = offset // BLOCK_SIZE
        last = (end - 1) // BLOCK_SIZE
        for block in range(first, last + 1):
            self._touch_block((inode.inode_id, block), dirty=True)
        if end > inode.size:
            inode.size = end
        inode.mtime_virt = self.guest.now()
        self._journal(fn, length)

    # ------------------------------------------------------------------
    # state fingerprint (determinism checks)
    # ------------------------------------------------------------------
    def fingerprint(self) -> int:
        """A stable hash of the full tree + cache state; equal across
        replicas iff the filesystems evolved identically."""
        items: List[tuple] = []

        def visit(name: str, node: Inode) -> None:
            items.append((name, node.kind, node.mode, node.size,
                          round(node.mtime_virt, 9)))
            if node.is_dir:
                for child_name in sorted(node.children):
                    visit(f"{name}/{child_name}",
                          node.children[child_name])

        visit("", self.root)
        items.append(tuple(sorted(self._cache.keys())))
        return hash(tuple(items)) & 0xFFFFFFFFFFFF
