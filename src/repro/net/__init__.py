"""Client-server protocol: messages, update batches and latency requirements.

The paper's operational model (Section II-A, Figure 2) decomposes response
time into network latency ``t_n`` and server time ``t_s``.  This package
holds what travels between client and server — client messages in, update
batches out — and the per-genre bounds on ``t_n``.
"""

from repro.net.batch import BatchStream, UpdateBatch
from repro.net.message import Message, MessageKind

__all__ = [
    "Message",
    "MessageKind",
    "UpdateBatch",
    "BatchStream",
]
