"""The inode/vnode pager: memory-mapped files.

Section 3.3: "to implement a memory mapped file, virtual memory is
created with its pager specified as the file system.  When a page fault
occurs, the kernel will translate the fault into a request for data from
the file system."

Pages filled this way live in the file's memory object; with
``cache=True`` (the ``pager_cache`` call) the object — pages included —
survives the last unmapping in the kernel's object cache, which is what
makes the *second* read of a file nearly free in Table 7-1 and what
"UNIX text segments" rely on for cheap re-execution.
"""

from __future__ import annotations

from repro.fs.filesystem import FileSystem
from repro.fs.inode import Inode
from repro.pager.protocol import UNAVAILABLE, DataResult, \
    PagerCapabilities, PagerProtocol
from repro.pager.registry import register_pager


class VnodePager(PagerProtocol):
    """File-backed pager: one instance per file."""

    def __init__(self, fs: FileSystem, path: str,
                 cache: bool = True) -> None:
        self.fs = fs
        self.path = path
        self.inode: Inode = fs.lookup(path)
        self.cache = cache
        self.pageins = 0
        self.pageouts = 0
        # Instance-level: transfer_size depends on this filesystem's
        # block size, unknown until construction.
        self.capabilities = PagerCapabilities(
            has_data=True, pager_init=True,
            transfer_size=fs.block_size)

    @property
    def transfer_size(self) -> int:
        """Preferred pagein granularity: the filesystem block size (the
        kernel clusters page fills to whole blocks)."""
        return self.fs.block_size

    # -- Table 3-1 entry points (internal pager: direct calls) ------------

    def pager_init(self, obj) -> None:
        """First mapping of the object: request retention in the object
        cache ("A pager may use domain specific knowledge to request
        that an object be kept in this cache")."""
        if self.cache:
            obj.can_persist = True

    def data_request(self, obj, offset: int, length: int,
                     desired_access, readahead_hint: int = 0
                     ) -> DataResult:
        """PagerProtocol v2: supply data for a faulting window (the
        kernel already clusters the window up to ``transfer_size``, so
        the hint adds nothing a block read would not).

        A medium error surfaces as
        :class:`~repro.core.errors.DiskIOError` — *transient* under the
        protocol's failure contract: the kernel retries with backoff and
        never declares the file system dead over a flaky disk.
        """
        if offset >= self.inode.size:
            return UNAVAILABLE
        self.pageins += 1
        #: no-retry — data_request sites are retried by the kernel's
        #: _call_pager funnel; retrying here would compound backoff.
        return self.fs.read_direct(self.inode, offset, length)

    def data_write(self, obj, offset: int, data: bytes) -> None:
        """PagerProtocol: accept page-out data.

        The write is clipped at end of file: the part of a page that
        lies past it (the zero fill of a partial last page) never
        reaches the file, so paging out never changes the file's size.

        On :class:`~repro.core.errors.DiskIOError` the page's previous
        backing-store contents survive; the kernel keeps the page dirty
        and retries the pageout later.
        """
        self.pageouts += 1
        data = data[:max(0, self.inode.size - offset)]
        if data:
            #: no-retry — on failure the kernel keeps the page dirty and
            #: retries the whole pageout via the _call_pager funnel.
            self.fs.write_direct(self.inode, offset, data)

    def has_data(self, obj, offset: int) -> bool:
        """Cheap residency probe used by the fault handler."""
        return offset < self.inode.size

    def name(self) -> str:
        """Human-readable pager identity."""
        return f"vnode:{self.path}"

    def __repr__(self) -> str:
        return f"VnodePager({self.path}, {self.inode.size} bytes)"


register_pager("vnode", VnodePager)


def vnode_pager_for(fs: FileSystem, path: str,
                    cache: bool = True) -> VnodePager:
    """The canonical pager for a file: one per inode, memoized so
    repeated mappings of the same file share one memory object (via the
    kernel's pager -> object registry)."""
    inode = fs.lookup(path)
    pager = getattr(inode, "_vnode_pager", None)
    if pager is None:
        pager = VnodePager(fs, path, cache=cache)
        inode._vnode_pager = pager
    return pager


def map_file(kernel, task, fs: FileSystem, path: str,
             cache: bool = True, address=None, anywhere: bool = True,
             size=None) -> int:
    """Map *path* into *task*'s address space; returns the address.

    Re-mapping a file whose object is still in the object cache attaches
    to the cached object — all resident pages come back for free.
    """
    pager = vnode_pager_for(fs, path, cache=cache)
    if size is None:
        size = max(pager.inode.size, 1)
    return kernel.vm_allocate_with_pager(task, size, pager,
                                         address=address,
                                         anywhere=anywhere)
