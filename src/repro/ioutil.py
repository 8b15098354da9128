"""Crash-safe file helpers shared by result writers.

Campaign workers and the benchmark harness write artifacts that other
processes (a resumed campaign, the aggregation pass, a human) read
back; a truncated file from an interrupted run must be impossible.
Everything here goes through the same discipline: write to a temp file
in the destination directory, fsync, then ``os.replace`` — atomic on
POSIX, so readers see either the old complete content or the new one.
"""

import contextlib
import json
import os
import tempfile
from typing import Any, Iterable, Iterator, TextIO, Type


class AtomicWriter:
    """A text handle whose content only appears at ``path`` on commit.

    Writes go to a temp file in the destination directory;
    :meth:`commit` fsyncs and ``os.replace``s it over ``path``,
    :meth:`discard` deletes it.  A process that dies mid-write leaves
    the destination untouched (only a ``.tmp`` straggler).  Long-lived
    writers (:class:`~repro.sim.monitor.JsonlSink`) hold one of these
    across a whole run; one-shot writers use :func:`atomic_writer` /
    :func:`atomic_write_text`.
    """

    def __init__(self, path: str, encoding: str = "utf-8"):
        self.path = os.fspath(path)
        directory = os.path.dirname(self.path) or "."
        os.makedirs(directory, exist_ok=True)
        fd, self._tmp = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(self.path) + ".",
            suffix=".tmp")
        self.handle: TextIO = os.fdopen(fd, "w", encoding=encoding)

    @property
    def closed(self) -> bool:
        return self.handle.closed

    def write(self, text: str) -> int:
        return self.handle.write(text)

    def commit(self) -> str:
        """Publish the written content at ``path`` (idempotent)."""
        if not self.handle.closed:
            self.handle.flush()
            os.fsync(self.handle.fileno())
            self.handle.close()
            os.replace(self._tmp, self.path)
        return self.path

    def discard(self) -> None:
        """Drop the temp file; ``path`` is left as it was."""
        if not self.handle.closed:
            self.handle.close()
            try:
                os.unlink(self._tmp)
            except OSError:
                pass


@contextlib.contextmanager
def atomic_writer(path: str, encoding: str = "utf-8") -> Iterator[TextIO]:
    """Context manager: yields a text handle; commits atomically on
    clean exit, discards (destination untouched) on exception."""
    writer = AtomicWriter(path, encoding=encoding)
    try:
        yield writer.handle
    except BaseException:
        writer.discard()
        raise
    writer.commit()


def atomic_write_text(path: str, text: str, encoding: str = "utf-8") -> str:
    """Atomically replace ``path`` with ``text``; returns ``path``."""
    with atomic_writer(path, encoding=encoding) as handle:
        handle.write(text)
    return os.fspath(path)


def atomic_write_json(path: str, obj: Any, **dumps_kwargs: Any) -> str:
    """Atomically write ``obj`` as JSON (tuples become lists, unknown
    objects their ``repr``)."""
    dumps_kwargs.setdefault("default", repr)
    dumps_kwargs.setdefault("sort_keys", True)
    return atomic_write_text(path, json.dumps(obj, **dumps_kwargs) + "\n")


def append_jsonl(path: str, obj: Any) -> None:
    """Append one JSON line to ``path`` (single write, newline-framed,
    so concurrent appenders from different processes never interleave
    mid-record on POSIX)."""
    line = json.dumps(obj, default=repr, sort_keys=True,
                      separators=(",", ":")) + "\n"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line)


def read_jsonl(path: str) -> Iterable[dict]:
    """Yield parsed objects from a JSONL file, skipping blank lines."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


def load_spec_file(path: str, error: Type[Exception]) -> Any:
    """Parse a ``.toml`` or ``.json`` spec file into plain data; raises
    ``error`` for any other suffix, or for TOML on Python < 3.11."""
    if path.endswith(".toml"):
        try:
            import tomllib
        except ModuleNotFoundError as exc:        # Python < 3.11
            raise error("loading .toml specs requires Python 3.11+ "
                        "(tomllib); convert the spec to .json") from exc
        with open(path, "rb") as handle:
            return tomllib.load(handle)
    if path.endswith(".json"):
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    raise error(f"spec path must end in .toml or .json: {path}")
