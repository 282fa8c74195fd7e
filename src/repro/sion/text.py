"""Formatted-text I/O over task streams (paper §3 roadmap).

The paper: *"Versions for formatted text can be constructed in a similar
way and will be provided in future versions of our library."*  This module
provides them: line-oriented writers and readers layered on the
chunk-spanning ``fwrite``/``fread`` primitives, so log-file-style usage
("every task appends text lines to its own logical file") works without
the caller thinking about chunk boundaries or encodings.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import SionUsageError


class TextWriter:
    """Line-oriented text writer over a SION handle (parallel or serial).

    >>> w = TextWriter(handle)           # doctest: +SKIP
    ... w.write_line("step=1 energy=-3.4")
    ... w.printf("step={} energy={:.2f}", 2, -3.1)
    """

    def __init__(
        self, stream: Any, encoding: str = "utf-8", newline: str = "\n"
    ) -> None:
        if not newline:
            raise SionUsageError("newline must be non-empty")
        self.stream = stream
        self.encoding = encoding
        self.newline = newline
        self.lines_written = 0
        self.bytes_written = 0

    def write_line(self, line: str) -> int:
        """Write one line (terminator appended); returns bytes written."""
        if self.newline in line:
            raise SionUsageError(
                "line already contains the newline terminator; "
                "use write_text for raw multi-line output"
            )
        data = (line + self.newline).encode(self.encoding)
        n = self.stream.fwrite(data)
        self.lines_written += 1
        self.bytes_written += n
        return n

    def write_text(self, text: str) -> int:
        """Write raw text as-is (may contain any number of newlines)."""
        data = text.encode(self.encoding)
        n = self.stream.fwrite(data)
        self.lines_written += text.count(self.newline)
        self.bytes_written += n
        return n

    def printf(self, fmt: str, *args, **kwargs) -> int:
        """``fprintf``-style convenience: format, then write as one line."""
        return self.write_line(fmt.format(*args, **kwargs))


class TextReader:
    """Line-oriented reader over a SION handle; iterable.

    Buffers across chunk boundaries internally, so lines split by the
    chunk layout are reassembled transparently.
    """

    _CHUNK = 64 * 1024

    def __init__(
        self, stream: Any, encoding: str = "utf-8", newline: str = "\n"
    ) -> None:
        if not newline:
            raise SionUsageError("newline must be non-empty")
        self.stream = stream
        self.encoding = encoding
        self._sep = newline.encode(encoding)
        self._buf = bytearray()
        self._done = False

    def _fill(self) -> bool:
        if self._done:
            return False
        piece = self.stream.fread(self._CHUNK)
        if not piece:
            self._done = True
            return False
        self._buf.extend(piece)
        return True

    def read_line(self) -> str | None:
        """Next line without its terminator, or ``None`` at end of stream.

        A final unterminated fragment is returned as a line (like
        ``io.TextIOBase`` would).
        """
        while True:
            idx = self._buf.find(self._sep)
            if idx >= 0:
                line = bytes(self._buf[:idx])
                del self._buf[: idx + len(self._sep)]
                return line.decode(self.encoding)
            if not self._fill():
                if self._buf:
                    line = bytes(self._buf)
                    self._buf.clear()
                    return line.decode(self.encoding)
                return None

    def read_lines(self) -> list[str]:
        """Every remaining line."""
        return list(self)

    def __iter__(self) -> Iterator[str]:
        while True:
            line = self.read_line()
            if line is None:
                return
            yield line
