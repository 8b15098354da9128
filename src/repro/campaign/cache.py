"""Content-addressed on-disk result cache.

Each campaign cell is addressed by the SHA-256 of

    (runner name, canonicalized params JSON, seed, code fingerprint)

where the *code fingerprint* hashes every ``.py`` file under the
installed ``repro`` package -- editing any source file invalidates the
whole cache, so a resumed campaign can never mix results from two code
versions.  Records are one JSON file per key, written atomically
(temp + ``os.replace``), so parallel workers and interrupted runs never
leave a truncated cell behind; a JSONL manifest alongside the cache is
the append-only audit log that ``repro campaign status`` reads.
"""

import hashlib
import json
import os
from typing import Any, Dict, Iterator, Optional

from repro.campaign.spec import TaskCell, canonical_params
from repro.ioutil import atomic_write_json

_FINGERPRINT_CACHE: Dict[str, str] = {}


def code_fingerprint(package_dir: Optional[str] = None) -> str:
    """SHA-256 over (relative path, content hash) of every ``.py`` file
    under the ``repro`` package (or ``package_dir``), cached per
    process."""
    if package_dir is None:
        import repro
        package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    cached = _FINGERPRINT_CACHE.get(package_dir)
    if cached is not None:
        return cached
    outer = hashlib.sha256()
    entries = []
    for root, _dirs, files in os.walk(package_dir):
        for filename in files:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(root, filename)
            with open(path, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
            entries.append((os.path.relpath(path, package_dir), digest))
    for relpath, digest in sorted(entries):
        outer.update(f"{relpath}\0{digest}\n".encode("utf-8"))
    fingerprint = outer.hexdigest()
    _FINGERPRINT_CACHE[package_dir] = fingerprint
    return fingerprint


def cell_key(cell: TaskCell, fingerprint: str) -> str:
    """The cell's content address."""
    material = "\0".join([cell.runner, canonical_params(cell.params),
                          repr(cell.seed), fingerprint])
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class ResultCache:
    """One JSON record per completed cell under ``root/``.

    A record is a plain dict::

        {"runner": ..., "params": {...}, "seed": ..., "status": "ok",
         "value": <normalized result>, "duration": 1.23,
         "fingerprint": ...}

    ``get`` returns ``None`` for missing keys and for records whose
    stored fingerprint no longer matches (defensive: the key already
    encodes it).  Failed records are stored too -- ``status`` lets a
    resume re-execute them while ``status``/``aggregate`` can still
    report the recorded error.
    """

    def __init__(self, root: str, fingerprint: Optional[str] = None):
        self.root = os.fspath(root)
        self.fingerprint = fingerprint or code_fingerprint()
        os.makedirs(self.root, exist_ok=True)

    def key(self, cell: TaskCell) -> str:
        return cell_key(cell, self.fingerprint)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        if record.get("fingerprint") != self.fingerprint:
            return None
        return record

    def put(self, key: str, record: Dict[str, Any]) -> str:
        record = dict(record)
        record["fingerprint"] = self.fingerprint
        return atomic_write_json(self._path(key), record, indent=None,
                                 separators=(",", ":"))

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self.root)
                   if name.endswith(".json"))

    def keys(self) -> Iterator[str]:
        for name in sorted(os.listdir(self.root)):
            if name.endswith(".json"):
                yield name[:-len(".json")]

    def __repr__(self) -> str:
        return (f"<ResultCache {self.root!r} entries={len(self)} "
                f"fingerprint={self.fingerprint[:12]}>")
