"""FR-FCFS memory controller with write drain and the MiL policy hook."""

from .controller import AlwaysScheme, ChannelController
from .queues import QueueFullError, TransactionQueue
from .request import MemoryRequest
from .writedrain import WriteDrainPolicy

__all__ = [
    "AlwaysScheme",
    "ChannelController",
    "QueueFullError",
    "TransactionQueue",
    "MemoryRequest",
    "WriteDrainPolicy",
]
