"""Multi-host distributed execution: the third runner venue.

The coordinator (:class:`DistributedRunner`) ships content-fingerprinted
chunk descriptors to TCP workers (``repro worker --listen``) over a
length-prefixed JSON wire protocol; the shared batch loop folds the
returned partials in ascending chunk order and walks the familiar retry
ladder on any failure — so serial, pool, and distributed batches stay
bit-identical.  See the submodule docstrings for the protocol
(:mod:`.wire`), the task-spec codec (:mod:`.codec`), the worker server
(:mod:`.worker`), and the scheduling/failure semantics
(:mod:`.coordinator`).
"""

from .codec import (
    CodecError,
    decode_task,
    encode_task,
    register_function,
    register_protocol,
    register_strategy,
    task_fingerprint,
)
from .coordinator import DistributedRunner, ENV_WORKERS, parse_workers
from .wire import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    ConnectionClosed,
    FrameError,
    WireError,
    decode_partial,
    encode_partial,
    recv_frame,
    send_frame,
)
from .worker import ENV_HEARTBEAT, WorkerServer, resolve_heartbeat, serve

__all__ = [
    "CodecError",
    "ConnectionClosed",
    "DistributedRunner",
    "ENV_HEARTBEAT",
    "ENV_WORKERS",
    "resolve_heartbeat",
    "FrameError",
    "MAX_FRAME",
    "PROTOCOL_VERSION",
    "WireError",
    "WorkerServer",
    "decode_partial",
    "decode_task",
    "encode_partial",
    "encode_task",
    "parse_workers",
    "recv_frame",
    "register_function",
    "register_protocol",
    "register_strategy",
    "send_frame",
    "serve",
    "task_fingerprint",
]
