"""A simulated PFS that counts the bytes moved to and from manifest files."""

from __future__ import annotations

from repro.pfs import SimulatedPFS


class CountingPFS(SimulatedPFS):
    """Counts the bytes read from and written to manifest files."""

    def __init__(self) -> None:
        super().__init__()
        self.manifest_read = self.manifest_written = 0

    def _make_handle(self, session, path):
        handle = super()._make_handle(session, path)
        if "/manifest.g" in path:
            read = handle.read

            def counted(offset, length):
                self.manifest_read += length
                return read(offset, length)

            handle.read = counted
        return handle

    def write_file(self, path, data):
        if "/manifest.g" in path:
            self.manifest_written += len(data)
        super().write_file(path, data)
