"""Pluggable sweep-execution backends (see ``docs/architecture.md``)."""

from .base import (
    SweepBackend,
    backend_names,
    make_backend,
    register_backend,
)
from .batch import (
    BatchQueueBackend,
    read_task_file,
    run_batch_worker,
    write_task_file,
)
from .lease import (
    DEFAULT_LEASE_TIMEOUT,
    claim_lease,
    release_lease,
    renew_lease,
)
from .local import LocalBackend, resolve_jobs
from .socket_ws import SocketWorkStealingBackend, worker_main

__all__ = [
    "SweepBackend",
    "backend_names",
    "make_backend",
    "register_backend",
    "BatchQueueBackend",
    "read_task_file",
    "run_batch_worker",
    "write_task_file",
    "DEFAULT_LEASE_TIMEOUT",
    "claim_lease",
    "release_lease",
    "renew_lease",
    "LocalBackend",
    "resolve_jobs",
    "SocketWorkStealingBackend",
    "worker_main",
]
