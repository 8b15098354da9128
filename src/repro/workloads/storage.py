"""Erasure-coded object storage tenant: k-of-n shares, one per VM.

The maximally disk-interrupt-heavy workload -- where StopWatch's Fig. 7
says replication overhead concentrates.  An object is striped through a
systematic k-of-n code (:class:`ErasureCodec`): ``k`` data shares plus
``n - k`` parity shares, one share per tenant VM, so any ``k`` of the
``n`` VMs reconstruct the object.  Placement anti-affinity
(Sec. VIII) guarantees the share-holding VMs sit on distinct host
triangles, so a single machine failure never strands more shares than
the code tolerates.

Pieces:

- :class:`ErasureCodec` -- pure-Python systematic code: single XOR
  parity for ``n == k + 1`` (the zfec fast path), Cauchy-matrix
  Reed-Solomon over GF(256) for deeper parity.  Any ``k`` distinct
  shares decode; short or wrong-length shares raise
  :class:`CodecError`; per-share digests catch corruption.
- :class:`ShareServer` -- the guest workload.  Speaks a chunked UDP
  protocol (PUT/GET of one share), paying guest compute + disk I/O for
  every share touched, so the whole exchange crosses the mediated
  ingress/egress pipeline and the replicas' virtual disks.
- :class:`StorageClient` -- client-side PUT/GET engine fanning one
  logical object out across the tenant's VM addresses (share ``i`` ->
  VM ``i``), with whole-operation timeout/retry.
- :class:`StorageLoop` -- the scenario driver (``scope="tenant"``):
  a closed PUT-then-GET-and-verify loop over a rotating object set,
  exposing the ``sent``/``reply_times`` counters the chaos invariant
  gates check.
- :class:`RepairDaemon` -- subscribes to the fabric's replica
  suspicion/heal hooks; when a share-holding VM degrades it
  reconstructs that VM's share from ``k`` healthy peers and writes it
  back through the mediated fabric, metering ``repaired_bytes``.
"""

import hashlib
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.net.udp import UdpStack
from repro.workloads.base import GuestWorkload

__all__ = [
    "CodecError",
    "ErasureCodec",
    "RepairDaemon",
    "ShareServer",
    "StorageClient",
    "StorageLoop",
    "share_digest",
    "STORAGE_PORT",
]

STORAGE_PORT = 7400
#: application chunk kept under the no-fragmentation UDP MTU
STORAGE_CHUNK = 1400
#: virtual disk block size the share server reads/writes in
DISK_BLOCK = 4096


class CodecError(ValueError):
    """Invalid codec parameters or undecodable share set."""


# ---------------------------------------------------------------------------
# GF(256) arithmetic (polynomial 0x11d, the Reed-Solomon standard)
# ---------------------------------------------------------------------------
_GF_EXP = [0] * 512
_GF_LOG = [0] * 256


def _build_tables() -> None:
    value = 1
    for power in range(255):
        _GF_EXP[power] = value
        _GF_LOG[value] = power
        value <<= 1
        if value & 0x100:
            value ^= 0x11d
    for power in range(255, 512):
        _GF_EXP[power] = _GF_EXP[power - 255]


_build_tables()


def _gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _GF_EXP[_GF_LOG[a] + _GF_LOG[b]]


def _gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("GF(256) inverse of 0")
    return _GF_EXP[255 - _GF_LOG[a]]


def _gf_matmul_row(row: Sequence[int], columns: Sequence[bytes],
                   length: int) -> bytes:
    """One output share: ``sum_i row[i] * columns[i]`` bytewise."""
    out = bytearray(length)
    for coeff, column in zip(row, columns):
        if coeff == 0:
            continue
        if coeff == 1:
            for index in range(length):
                out[index] ^= column[index]
        else:
            log_c = _GF_LOG[coeff]
            for index in range(length):
                byte = column[index]
                if byte:
                    out[index] ^= _GF_EXP[log_c + _GF_LOG[byte]]
    return bytes(out)


def _gf_invert(matrix: List[List[int]]) -> List[List[int]]:
    """Gauss-Jordan inverse of a k x k matrix over GF(256)."""
    size = len(matrix)
    work = [list(row) + [1 if i == j else 0 for j in range(size)]
            for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if work[r][col]), None)
        if pivot is None:
            raise CodecError("singular decode matrix (duplicate shares?)")
        work[col], work[pivot] = work[pivot], work[col]
        inv = _gf_inv(work[col][col])
        work[col] = [_gf_mul(value, inv) for value in work[col]]
        for row in range(size):
            if row == col or not work[row][col]:
                continue
            factor = work[row][col]
            work[row] = [value ^ _gf_mul(factor, pivot_value)
                         for value, pivot_value
                         in zip(work[row], work[col])]
    return [row[size:] for row in work]


def share_digest(share: bytes) -> str:
    """Short content digest used to reject corrupted shares."""
    return hashlib.sha256(share).hexdigest()[:16]


class ErasureCodec:
    """Systematic k-of-n erasure code over GF(256).

    Shares ``0..k-1`` are the data stripes verbatim; shares ``k..n-1``
    are parity.  ``n == k + 1`` uses plain XOR parity; deeper codes use
    a Cauchy parity matrix, so *any* ``k`` distinct shares decode (the
    MDS property, inherited from every Cauchy submatrix being
    nonsingular).
    """

    def __init__(self, k: int, n: int):
        if not 1 <= k <= n:
            raise CodecError(f"need 1 <= k <= n, got k={k} n={n}")
        if n > 128:
            raise CodecError(f"n must be <= 128, got {n}")
        self.k = k
        self.n = n
        # parity rows: Cauchy matrix 1/(x_j + y_i), x and y disjoint
        self._parity_rows: List[List[int]] = [
            [_gf_inv((self.k + j) ^ i) for i in range(k)]
            for j in range(n - k)]

    def share_size(self, size: int) -> int:
        """Bytes per share for a ``size``-byte object."""
        if size < 0:
            raise CodecError(f"negative object size: {size}")
        return -(-size // self.k)        # ceil; 0 for the empty object

    def _row(self, index: int) -> List[int]:
        if index < self.k:
            return [1 if i == index else 0 for i in range(self.k)]
        if self.n == self.k + 1:
            return [1] * self.k          # XOR parity fast path
        return self._parity_rows[index - self.k]

    def encode(self, data: bytes) -> List[bytes]:
        """``n`` shares for ``data`` (padded up to a stripe multiple)."""
        stripe = self.share_size(len(data))
        padded = data.ljust(self.k * stripe, b"\0")
        stripes = [padded[i * stripe:(i + 1) * stripe]
                   for i in range(self.k)]
        shares = list(stripes)
        for index in range(self.k, self.n):
            shares.append(_gf_matmul_row(self._row(index), stripes,
                                         stripe))
        return shares

    def decode(self, shares: Dict[int, bytes], size: int,
               digests: Optional[Sequence[str]] = None) -> bytes:
        """Reconstruct the ``size``-byte object from >= k shares.

        ``shares`` maps share index -> share bytes.  With ``digests``
        (the per-index digests recorded at encode time) corrupted
        shares are rejected before they can poison the decode.
        """
        stripe = self.share_size(size)
        usable: Dict[int, bytes] = {}
        for index in sorted(shares):
            share = shares[index]
            if not 0 <= index < self.n:
                raise CodecError(f"share index {index} outside 0..{self.n - 1}")
            if len(share) != stripe:
                raise CodecError(
                    f"share {index}: {len(share)} bytes, expected "
                    f"{stripe} (short or truncated share)")
            if digests is not None \
                    and share_digest(share) != digests[index]:
                raise CodecError(f"share {index}: digest mismatch "
                                 f"(corrupt share)")
            usable[index] = share
        if len(usable) < self.k:
            raise CodecError(
                f"need {self.k} shares to decode, got {len(usable)}")
        picked = sorted(usable)[:self.k]
        if stripe == 0:
            return b""
        if picked == list(range(self.k)):
            stripes = [usable[i] for i in picked]     # systematic case
        else:
            matrix = [self._row(index) for index in picked]
            inverse = _gf_invert(matrix)
            columns = [usable[index] for index in picked]
            stripes = [_gf_matmul_row(row, columns, stripe)
                       for row in inverse]
        return b"".join(stripes)[:size]


# ---------------------------------------------------------------------------
# guest-side share server
# ---------------------------------------------------------------------------
class ShareServer(GuestWorkload):
    """Holds erasure-code shares; speaks chunked UDP PUT/GET.

    Wire protocol (datagram tags; ``data_len`` models the wire cost):

    - ``("PUT", obj, idx, req, seq, nchunks, chunk)`` -- one share
      chunk.  When the last chunk lands the server pays
      ``write_compute`` guest branches plus a ``disk_write`` of the
      share, then acks ``("PUT-OK", obj, idx, req)``.
    - ``("GET", obj, req)`` -- pays ``read_compute`` branches plus a
      ``disk_read``, then streams ``("GET-DATA", obj, idx, req, seq,
      nchunks, chunk)``; ``("GET-MISS", obj, req)`` if absent.

    Chunks carry their own sequence numbers, so reassembly tolerates
    reordering; a lost chunk surfaces as a client-side timeout and a
    whole-request retry (new request id).
    """

    def __init__(self, guest, port: int = STORAGE_PORT,
                 write_compute: int = 12000, read_compute: int = 8000):
        super().__init__(guest)
        self.port = port
        self.write_compute = write_compute
        self.read_compute = read_compute
        self.udp = UdpStack(guest)
        #: object id -> (share index, share bytes)
        self.shares: Dict[str, Tuple[int, bytes]] = {}
        self.puts_served = 0
        self.gets_served = 0
        self.misses = 0
        self._assembling: Dict[tuple, Dict[int, bytes]] = {}

    def start(self) -> None:
        self.udp.bind(self.port, self._on_datagram)

    def _on_datagram(self, datagram, src: str) -> None:
        tag = datagram.tag
        if not isinstance(tag, tuple) or not tag:
            return
        if tag[0] == "PUT":
            self._on_put_chunk(tag, datagram.src_port, src)
        elif tag[0] == "GET":
            self._on_get(tag, datagram.src_port, src)

    # -- PUT ----------------------------------------------------------
    def _on_put_chunk(self, tag, src_port: int, src: str) -> None:
        _, obj, index, req, seq, nchunks, chunk = tag
        key = (src, src_port, obj, index, req)
        parts = self._assembling.setdefault(key, {})
        parts[seq] = chunk
        if len(parts) < nchunks:
            return
        del self._assembling[key]
        share = b"".join(parts[i] for i in range(nchunks))
        self.guest.compute(self.write_compute, self._write_share,
                           obj, index, req, share, src, src_port)

    def _write_share(self, obj: str, index: int, req: int,
                     share: bytes, src: str, src_port: int) -> None:
        blocks = max(1, -(-len(share) // DISK_BLOCK))
        self.guest.disk_write(blocks, self._share_written,
                              obj, index, req, share, src, src_port)

    def _share_written(self, obj: str, index: int, req: int,
                       share: bytes, src: str, src_port: int) -> None:
        self.shares[obj] = (index, share)
        self.puts_served += 1
        self.udp.send(src, self.port, src_port, data_len=16,
                      tag=("PUT-OK", obj, index, req))

    # -- GET ----------------------------------------------------------
    def _on_get(self, tag, src_port: int, src: str) -> None:
        _, obj, req = tag
        held = self.shares.get(obj)
        if held is None:
            self.misses += 1
            self.udp.send(src, self.port, src_port, data_len=16,
                          tag=("GET-MISS", obj, req))
            return
        self.guest.compute(self.read_compute, self._read_share,
                           obj, req, src, src_port)

    def _read_share(self, obj: str, req: int, src: str,
                    src_port: int) -> None:
        held = self.shares.get(obj)
        if held is None:                 # evicted while computing
            self.udp.send(src, self.port, src_port, data_len=16,
                          tag=("GET-MISS", obj, req))
            return
        index, share = held
        blocks = max(1, -(-len(share) // DISK_BLOCK))
        self.guest.disk_read(blocks, self._stream_share,
                             obj, index, req, share, src, src_port)

    def _stream_share(self, obj: str, index: int, req: int,
                      share: bytes, src: str, src_port: int) -> None:
        self.gets_served += 1
        chunks = _chunked(share)
        for seq, chunk in enumerate(chunks):
            self.udp.send(src, self.port, src_port,
                          data_len=max(1, len(chunk)),
                          tag=("GET-DATA", obj, index, req, seq,
                               len(chunks), chunk))


def _chunked(share: bytes) -> List[bytes]:
    """Share bytes split into <= MTU chunks; empty share -> one
    zero-length chunk so the transfer still completes."""
    if not share:
        return [b""]
    return [share[i:i + STORAGE_CHUNK]
            for i in range(0, len(share), STORAGE_CHUNK)]


# ---------------------------------------------------------------------------
# client-side engine
# ---------------------------------------------------------------------------
class StorageClient:
    """PUT/GET engine for one tenant's share servers.

    ``targets`` is the ordered list of the tenant's VM addresses; share
    ``i`` always lives on ``targets[i]``.  Operations carry a
    whole-operation timeout: on expiry the missing per-share exchanges
    are retried under a fresh request id, up to ``max_retries`` times,
    then the operation fails.  The client keeps a directory of every
    object it stored (size + per-share digests) so reads verify
    integrity end-to-end and the repair daemon knows what to rebuild.
    """

    def __init__(self, client_node, targets: Sequence[str], k: int,
                 n: int, local_port: int = 9500,
                 timeout: Optional[float] = 1.0, max_retries: int = 3):
        if len(targets) != n:
            raise CodecError(
                f"{n} shares need {n} targets, got {len(targets)}")
        self.node = client_node
        self.targets = list(targets)
        self.codec = ErasureCodec(k, n)
        self.local_port = local_port
        self.timeout = timeout
        self.max_retries = max_retries
        self.udp = UdpStack(client_node)
        self.udp.bind(local_port, self._on_datagram)
        #: object id -> {"size", "digests"} for every completed PUT
        self.directory: Dict[str, Dict[str, Any]] = {}
        self.puts_completed = 0
        self.gets_completed = 0
        self.failures = 0
        self.retries = 0
        self.bytes_put = 0
        self.bytes_got = 0
        self._next_req = 0
        self._ops: Dict[int, dict] = {}      # req id -> operation state
        self._req_op: Dict[int, int] = {}    # wire req id -> op id

    # -- operations ---------------------------------------------------
    def put_object(self, obj: str, data: bytes,
                   on_done: Optional[Callable] = None,
                   on_fail: Optional[Callable] = None,
                   only_index: Optional[int] = None) -> None:
        """Encode ``data`` and fan the shares out (share i -> VM i).

        ``only_index`` restricts the fan-out to one share -- the repair
        daemon's write-back path.
        """
        shares = self.codec.encode(data)
        digests = [share_digest(share) for share in shares]
        indices = ([only_index] if only_index is not None
                   else list(range(self.codec.n)))
        op = {"kind": "put", "obj": obj, "attempt": 0,
              "shares": shares, "digests": digests, "size": len(data),
              "pending": set(indices), "on_done": on_done,
              "on_fail": on_fail, "timer": None}
        op_id = self._new_op(op)
        self._put_round(op_id)

    def get_object(self, obj: str,
                   on_done: Optional[Callable] = None,
                   on_fail: Optional[Callable] = None,
                   exclude: Sequence[int] = ()) -> None:
        """Fetch >= k shares and decode; verifies recorded digests.

        ``exclude`` masks share indices believed lost; the first round
        asks the ``k`` lowest-indexed remaining VMs, retries widen to
        every remaining VM.
        """
        entry = self.directory.get(obj)
        if entry is None:
            self._fail_now(on_fail, obj)
            return
        op = {"kind": "get", "obj": obj, "attempt": 0,
              "size": entry["size"], "digests": entry["digests"],
              "exclude": set(exclude), "got": {},
              "on_done": on_done, "on_fail": on_fail, "timer": None,
              "chunks": {}}
        op_id = self._new_op(op)
        self._get_round(op_id)

    # -- shared plumbing ----------------------------------------------
    def _new_op(self, op: dict) -> int:
        op_id = self._next_req
        self._next_req += 1
        self._ops[op_id] = op
        return op_id

    def _wire_req(self, op_id: int) -> int:
        req = self._next_req
        self._next_req += 1
        self._req_op[req] = op_id
        return req

    def _arm_timer(self, op_id: int) -> None:
        op = self._ops[op_id]
        if self.timeout is None:
            return
        if op["timer"] is not None:
            op["timer"].cancel()
        op["timer"] = self.node.schedule(self.timeout, self._on_timeout,
                                         op_id)
    def _fail_now(self, on_fail: Optional[Callable], obj: str) -> None:
        self.failures += 1
        if on_fail is not None:
            on_fail(obj)

    def _finish(self, op_id: int, ok: bool, *result) -> None:
        op = self._ops.pop(op_id, None)
        if op is None:
            return
        if op["timer"] is not None:
            op["timer"].cancel()
        stale = [req for req, owner in self._req_op.items()
                 if owner == op_id]
        for req in stale:
            del self._req_op[req]
        if ok:
            callback = op["on_done"]
            if callback is not None:
                callback(*result)
        else:
            self._fail_now(op["on_fail"], op["obj"])

    def _on_timeout(self, op_id: int) -> None:
        op = self._ops.get(op_id)
        if op is None:
            return
        op["timer"] = None
        if op["attempt"] >= self.max_retries:
            self._finish(op_id, False)
            return
        op["attempt"] += 1
        self.retries += 1
        if op["kind"] == "put":
            self._put_round(op_id)
        else:
            self._get_round(op_id)

    # -- PUT rounds ---------------------------------------------------
    def _put_round(self, op_id: int) -> None:
        op = self._ops[op_id]
        req = self._wire_req(op_id)
        op["round_req"] = req
        for index in sorted(op["pending"]):
            share = op["shares"][index]
            chunks = _chunked(share)
            for seq, chunk in enumerate(chunks):
                self.udp.send(self.targets[index], self.local_port,
                              STORAGE_PORT,
                              data_len=max(1, len(chunk)),
                              tag=("PUT", op["obj"], index, req, seq,
                                   len(chunks), chunk))
        self._arm_timer(op_id)

    def _on_put_ok(self, op_id: int, tag) -> None:
        op = self._ops.get(op_id)
        if op is None or op["kind"] != "put":
            return
        _, obj, index, req = tag
        if req != op.get("round_req"):
            return                        # stale ack from an old round
        op["pending"].discard(index)
        if op["pending"]:
            return
        self.puts_completed += 1
        self.bytes_put += op["size"]
        self.directory[op["obj"]] = {"size": op["size"],
                                     "digests": op["digests"]}
        self._finish(op_id, True, op["obj"])

    # -- GET rounds ---------------------------------------------------
    def _get_round(self, op_id: int) -> None:
        op = self._ops[op_id]
        req = self._wire_req(op_id)
        op["round_req"] = req
        candidates = [i for i in range(self.codec.n)
                      if i not in op["exclude"] and i not in op["got"]]
        if op["attempt"] == 0:
            need = self.codec.k - len(op["got"])
            candidates = candidates[:need]
        for index in candidates:
            self.udp.send(self.targets[index], self.local_port,
                          STORAGE_PORT, data_len=16,
                          tag=("GET", op["obj"], req))
        self._arm_timer(op_id)

    def _on_get_data(self, op_id: int, tag) -> None:
        op = self._ops.get(op_id)
        if op is None or op["kind"] != "get":
            return
        _, obj, index, req, seq, nchunks, chunk = tag
        if index in op["got"]:
            return
        parts = op["chunks"].setdefault(index, {})
        parts[seq] = chunk
        if len(parts) < nchunks:
            return
        share = b"".join(parts[i] for i in range(nchunks))
        del op["chunks"][index]
        if share_digest(share) != op["digests"][index]:
            op["exclude"].add(index)     # corrupt share: never re-ask
            return
        op["got"][index] = share
        if len(op["got"]) < self.codec.k:
            return
        try:
            data = self.codec.decode(op["got"], op["size"],
                                     digests=op["digests"])
        except CodecError:
            self._finish(op_id, False)
            return
        self.gets_completed += 1
        self.bytes_got += op["size"]
        self._finish(op_id, True, data)

    def _on_datagram(self, datagram, src: str) -> None:
        tag = datagram.tag
        if not isinstance(tag, tuple) or not tag:
            return
        if tag[0] == "PUT-OK":
            req = tag[3]
        elif tag[0] in ("GET-DATA", "GET-MISS"):
            req = tag[3] if tag[0] == "GET-DATA" else tag[2]
        else:
            return
        op_id = self._req_op.get(req)
        if op_id is None:
            return
        if tag[0] == "PUT-OK":
            self._on_put_ok(op_id, tag)
        elif tag[0] == "GET-DATA":
            self._on_get_data(op_id, tag)
        # GET-MISS: leave it to the round timeout, which widens the ask


# ---------------------------------------------------------------------------
# the scenario driver
# ---------------------------------------------------------------------------
class StorageLoop:
    """Closed-loop storage client: PUT object, GET it back, verify.

    Deterministic payload generation (object id + a seeded stream
    cipher of sorts -- SHA-256 counter mode over the object id) keeps
    the loop byte-reproducible without drawing client RNG.  Exposes the
    ``sent``/``reply_times`` counters the chaos invariant gates expect
    from every load driver.
    """

    def __init__(self, client_node, targets: Sequence[str], k: int,
                 n: int, object_size: int, objects: int = 3,
                 local_port: int = 9500, timeout: Optional[float] = 1.0,
                 max_retries: int = 3):
        self.node = client_node
        self.client = StorageClient(client_node, targets, k, n,
                                    local_port=local_port,
                                    timeout=timeout,
                                    max_retries=max_retries)
        self.object_size = object_size
        self.objects = objects
        self.sent = 0
        self.reply_times: List[float] = []
        self.verify_failures = 0
        self.failed = 0
        self._cycle = 0
        self._running = False

    # the invariant gates read driver.retries for the retry tally
    @property
    def retries(self) -> int:
        return self.client.retries

    def object_id(self, cycle: int) -> str:
        return f"obj-{cycle % self.objects}"

    def payload(self, cycle: int) -> bytes:
        return deterministic_payload(self.object_id(cycle),
                                     self.object_size)

    def start(self) -> None:
        self._running = True
        self._next()

    def stop(self) -> None:
        self._running = False

    def _next(self) -> None:
        if not self._running:
            return
        cycle = self._cycle
        self._cycle += 1
        self.sent += 1
        self.client.put_object(self.object_id(cycle),
                               self.payload(cycle),
                               on_done=lambda obj, c=cycle:
                               self._on_put(c),
                               on_fail=lambda obj: self._on_fail())

    def _on_put(self, cycle: int) -> None:
        if not self._running:
            return
        self.sent += 1
        self.client.get_object(self.object_id(cycle),
                               on_done=lambda data, c=cycle:
                               self._on_get(c, data),
                               on_fail=lambda obj: self._on_fail())

    def _on_get(self, cycle: int, data: bytes) -> None:
        self.reply_times.append(self.node.now())
        if data != self.payload(cycle):
            self.verify_failures += 1
        self._next()

    def _on_fail(self) -> None:
        self.failed += 1
        self._next()


def deterministic_payload(obj: str, size: int) -> bytes:
    """``size`` reproducible bytes derived from the object id."""
    out = bytearray()
    counter = 0
    while len(out) < size:
        out += hashlib.sha256(f"{obj}:{counter}".encode()).digest()
        counter += 1
    return bytes(out[:size])


# ---------------------------------------------------------------------------
# the repair daemon
# ---------------------------------------------------------------------------
class RepairDaemon:
    """Reconstructs a degraded VM's share across the mediated fabric.

    Wired into the fabric's replica-event fan-out
    (:meth:`repro.cloud.fabric.Cloud.add_replica_listener`) and -- when
    a healer is armed -- :attr:`EvacuationController.on_complete`.
    When any replica of a share-holding VM is suspected, the daemon
    waits ``confirm_delay`` (an in-place restart usually wins), then
    for every object in the client directory: GETs ``k`` shares from
    the *other* VMs, decodes, re-encodes the lost index, and PUTs that
    share back to the degraded VM through ingress replication --
    restoring ``n`` live shares and metering ``repaired_bytes``.
    """

    def __init__(self, cloud, client_node, targets: Sequence[str],
                 directory_client: StorageClient, k: int, n: int,
                 confirm_delay: float = 0.25, local_port: int = 9600,
                 timeout: Optional[float] = 1.0, max_retries: int = 3):
        self.cloud = cloud
        self.sim = cloud.sim
        self.targets = list(targets)
        self.source = directory_client
        self.client = StorageClient(client_node, targets, k, n,
                                    local_port=local_port,
                                    timeout=timeout,
                                    max_retries=max_retries)
        self.confirm_delay = confirm_delay
        self.repairs_started = 0
        self.repairs_completed = 0
        self.repaired_bytes = 0
        self.repair_failures = 0
        self.heal_completions = 0
        self._pending: set = set()       # vm indices queued/repairing

    def attach(self) -> "RepairDaemon":
        """Subscribe to suspicion events (and heal completions)."""
        self.cloud.add_replica_listener(self._on_replica_event)
        if self.cloud.healer is not None \
                and hasattr(self.cloud.healer, "on_complete"):
            self.cloud.healer.on_complete.append(self._on_heal_complete)
        return self

    # -- event hooks --------------------------------------------------
    def _on_replica_event(self, vm_name: str, replica_id: int,
                          up: bool) -> None:
        if up or vm_name not in self._vm_names():
            return
        index = self._vm_names().index(vm_name)
        if index in self._pending:
            return
        self._pending.add(index)
        self.sim.trace.record(self.sim.now, "storage.repair.suspect",
                              vm=vm_name, replica=replica_id,
                              share=index)
        self.sim.call_after(self.confirm_delay, self._start_repair,
                            index)

    def _on_heal_complete(self, vm_name: str, replica_id: int,
                          mode: str) -> None:
        if vm_name in self._vm_names():
            self.heal_completions += 1

    def _vm_names(self) -> List[str]:
        return [target.split(":", 1)[1] for target in self.targets]

    # -- the repair pipeline ------------------------------------------
    def _start_repair(self, index: int) -> None:
        objects = sorted(self.source.directory)
        self.repairs_started += 1
        self.sim.trace.record(self.sim.now, "storage.repair.start",
                              share=index, objects=len(objects))
        # seed the repair client's directory from the uploader's view
        for obj in objects:
            self.client.directory[obj] = dict(
                self.source.directory[obj])
        self._repair_next(index, objects, 0)

    def _repair_next(self, index: int, objects: List[str],
                     cursor: int) -> None:
        if cursor >= len(objects):
            self._pending.discard(index)
            self.repairs_completed += 1
            self.sim.trace.record(self.sim.now,
                                  "storage.repair.complete",
                                  share=index, objects=len(objects),
                                  repaired_bytes=self.repaired_bytes)
            self.sim.metrics.incr("storage.repairs")
            return
        obj = objects[cursor]
        self.client.get_object(
            obj,
            on_done=lambda data: self._rebuild(index, objects, cursor,
                                               data),
            on_fail=lambda _obj: self._give_up(index, objects, cursor),
            exclude=(index,))

    def _rebuild(self, index: int, objects: List[str], cursor: int,
                 data: bytes) -> None:
        obj = objects[cursor]
        share = self.client.codec.encode(data)[index]
        self.client.put_object(
            obj, data,
            on_done=lambda _obj: self._share_restored(index, objects,
                                                      cursor, share),
            on_fail=lambda _obj: self._give_up(index, objects, cursor),
            only_index=index)

    def _share_restored(self, index: int, objects: List[str],
                        cursor: int, share: bytes) -> None:
        self.repaired_bytes += len(share)
        self.sim.metrics.incr("storage.repaired_bytes", len(share))
        self.sim.trace.record(self.sim.now, "storage.repair.share",
                              share=index, obj=objects[cursor],
                              bytes=len(share))
        self._repair_next(index, objects, cursor + 1)

    def _give_up(self, index: int, objects: List[str],
                 cursor: int) -> None:
        self._pending.discard(index)
        self.repair_failures += 1
        self.sim.trace.record(self.sim.now, "storage.repair.failed",
                              share=index, obj=objects[cursor])
