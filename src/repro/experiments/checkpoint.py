"""Deterministic simulator checkpoints for the campaign plane.

A checkpoint freezes a *prepared and partially run* scenario -- event
heap, engine counters, replica/monitor state, workload clients, RNG
streams, armed faults -- so a campaign can be killed at a slice boundary
and resumed bit-identically: the resumed run executes exactly the events
the uninterrupted run would have, in the same order, with the same
random draws.

File format (version 11, little-endian)::

    8 bytes   magic  b"RPROCKPT"
    <H        format version
    <I        header length
    ...       UTF-8 JSON header: scenario identity (Scenario.describe()),
              sim clock/event counters, payload sha256
    <Q        payload length
    ...       pickle of the ScenarioResult object graph

Everything that can go wrong fails loudly with :class:`CheckpointError`:
wrong magic, unknown version, truncation anywhere, payload checksum
mismatch, or resuming under a different scenario identity.  A checkpoint
that loads without error is the state it claims to be.

A checkpoint resumes on the build that wrote it.  The version moves
whenever a pickled class moves or changes layout, or the delivery token
changes encoding: version 11 pickles ``RunMetrics`` and ``CommitEvent``
from :mod:`repro.metrics` and clients that record into their workload's
one observer (version 10 pickled them from ``repro.consensus.base``,
with per-client latency lists), so a version-10 file is refused by its
header, not by pickle.

Why pickle works here
---------------------
The simulation object graph was made closure-free for exactly this
purpose (armed faults in :mod:`repro.faults.schedule`, which schedule
their own bound methods, :class:`repro.sim.engine.SimClock`,
``Network.__getstate__``).  The one survivor is the network's
per-message delivery closure, which sits in every in-flight
``(time, seq, None, _deliver, args)`` heap entry.  The pickler's
``reducer_override`` -- consulted only for objects that need a reduce,
not for the ints, floats, strings and containers that make up most of
the graph -- writes a :class:`_DeliverToken` in its place, and
:func:`load_checkpoint` rewrites the queue entries to point at the
freshly rebuilt ``network._deliver_bound`` (restored by
``Network.__setstate__``).  Campaign clusters have exactly one network,
so the rebind is unambiguous.  Any other closure still fails to pickle.

Writes are atomic (temp file + ``os.replace``) so a kill *during*
checkpointing leaves either the previous checkpoint or none -- never a
torn file that parses.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import struct
from typing import Any, Dict, Optional

MAGIC = b"RPROCKPT"
FORMAT_VERSION = 11

_HEADER_STRUCT = struct.Struct("<I")
_PAYLOAD_STRUCT = struct.Struct("<Q")
_VERSION_STRUCT = struct.Struct("<H")

#: Qualname of the one closure allowed in the checkpointed graph (the
#: network delivery fast path); see module docstring.
_DELIVER_QUALNAME = "Network._make_deliver.<locals>._deliver"


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, read, or trusted."""


class _DeliverToken:
    """Placeholder for the network delivery closure during unpickling.

    Calling one means :func:`load_checkpoint`'s queue rewrite missed an
    entry -- fail loudly rather than silently dropping a delivery.
    """

    __slots__ = ()

    def __call__(self, *args: Any) -> None:
        raise CheckpointError(
            "unresolved delivery token executed -- checkpoint queue "
            "rewrite missed an in-flight message"
        )


class _CheckpointPickler(pickle.Pickler):
    """Pickler that tokenises the network delivery closure."""

    def reducer_override(self, obj: Any) -> Any:
        if getattr(obj, "__qualname__", None) == _DELIVER_QUALNAME:
            return _DeliverToken, ()
        return NotImplemented


def _serialize_state(result: Any) -> bytes:
    buffer = io.BytesIO()
    try:
        _CheckpointPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(result)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise CheckpointError(f"scenario state is not checkpointable: {exc}") from exc
    return buffer.getvalue()


def _deserialize_state(payload: bytes) -> Any:
    try:
        return pickle.loads(payload)
    except Exception as exc:  # pickle raises a zoo of types on bad input
        raise CheckpointError(f"checkpoint payload does not unpickle: {exc}") from exc


def _rebind_deliveries(result: Any) -> None:
    """Point tokenised heap entries at the rebuilt delivery closure."""
    sim = result.cluster.sim
    deliver = result.cluster.network._deliver_bound
    queue = sim._queue
    for index, entry in enumerate(queue):
        if type(entry[3]) is _DeliverToken:
            # Same (time, seq) key, so the heap invariant is untouched.
            queue[index] = (entry[0], entry[1], entry[2], deliver, entry[4])


def checkpoint_header(result: Any, extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """JSON-able description of what a checkpoint holds (sans checksum)."""
    sim = result.cluster.sim
    header: Dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "scenario": result.scenario.describe(),
        "sim_now": sim.now,
        "events_processed": sim.events_processed,
        "seq": sim._seq,
        "pending_events": len(sim._queue),
    }
    if extra:
        header["extra"] = extra
    return header


def dump_checkpoint(result: Any, extra: Optional[Dict[str, Any]] = None) -> bytes:
    """Serialise a prepared/partially-run ScenarioResult to bytes."""
    payload = _serialize_state(result)
    header = checkpoint_header(result, extra)
    header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    return b"".join(
        (
            MAGIC,
            _VERSION_STRUCT.pack(FORMAT_VERSION),
            _HEADER_STRUCT.pack(len(header_bytes)),
            header_bytes,
            _PAYLOAD_STRUCT.pack(len(payload)),
            payload,
        )
    )


def save_checkpoint(
    path: str, result: Any, extra: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Atomically write ``result``'s checkpoint to ``path``.

    Returns the header that was written.  The temp file lives next to the
    target so ``os.replace`` stays on one filesystem and is atomic.
    """
    blob = dump_checkpoint(result, extra)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp_path):  # pragma: no cover - error path
            os.unlink(tmp_path)
    return read_header(path)


def _read_exact(handle: io.BufferedReader, n: int, what: str) -> bytes:
    data = handle.read(n)
    if len(data) != n:
        raise CheckpointError(
            f"truncated checkpoint: expected {n} bytes of {what}, got {len(data)}"
        )
    return data


def _parse(blob_handle: io.BufferedReader) -> tuple:
    magic = _read_exact(blob_handle, len(MAGIC), "magic")
    if magic != MAGIC:
        raise CheckpointError(
            f"not a repro checkpoint (magic {magic!r} != {MAGIC!r})"
        )
    (version,) = _VERSION_STRUCT.unpack(
        _read_exact(blob_handle, _VERSION_STRUCT.size, "version")
    )
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format v{version} unsupported (this build reads "
            f"v{FORMAT_VERSION}); re-run the scenario from its start"
        )
    (header_len,) = _HEADER_STRUCT.unpack(
        _read_exact(blob_handle, _HEADER_STRUCT.size, "header length")
    )
    header_bytes = _read_exact(blob_handle, header_len, "header")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
    (payload_len,) = _PAYLOAD_STRUCT.unpack(
        _read_exact(blob_handle, _PAYLOAD_STRUCT.size, "payload length")
    )
    payload = _read_exact(blob_handle, payload_len, "payload")
    if blob_handle.read(1):
        raise CheckpointError("trailing garbage after checkpoint payload")
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("payload_sha256"):
        raise CheckpointError(
            "checkpoint payload checksum mismatch "
            f"({digest} != {header.get('payload_sha256')})"
        )
    return header, payload


def read_header(path: str) -> Dict[str, Any]:
    """Parse and verify a checkpoint file, returning only its header."""
    try:
        with open(path, "rb") as handle:
            header, _ = _parse(handle)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    return header


def load_checkpoint(path: str, expected_scenario: Any = None) -> Any:
    """Restore a ScenarioResult from ``path``, ready to keep running.

    ``expected_scenario`` (a :class:`repro.experiments.runner.Scenario`)
    guards against resuming the wrong campaign: its ``describe()``
    identity must match the one frozen in the header.
    """
    try:
        with open(path, "rb") as handle:
            header, payload = _parse(handle)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if expected_scenario is not None:
        # Round-trip through JSON so tuples in the live identity compare
        # equal to the lists the stored header parsed back.
        expected = json.loads(json.dumps(expected_scenario.describe()))
        frozen = header.get("scenario")
        if frozen != expected:
            diff = [
                key
                for key in sorted(set(expected) | set(frozen or {}))
                if (frozen or {}).get(key) != expected.get(key)
            ]
            raise CheckpointError(
                "checkpoint belongs to a different scenario "
                f"(fields differing: {', '.join(diff) or 'structure'})"
            )
    result = _deserialize_state(payload)
    _rebind_deliveries(result)
    sim = result.cluster.sim
    if sim.now != header["sim_now"] or sim.events_processed != header["events_processed"]:
        raise CheckpointError(
            "checkpoint header disagrees with restored state "
            f"(now {sim.now} vs {header['sim_now']}, "
            f"events {sim.events_processed} vs {header['events_processed']})"
        )
    return result
