"""Pluggable sweep-execution backends (see ``docs/architecture.md``)."""

from .base import SweepBackend
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

#: ``--backend`` name -> backend class
BACKENDS = {
    "local": LocalBackend,
    "socket": SocketWorkStealingBackend,
    "batch": BatchQueueBackend,
}


def make_backend(name: str, **options) -> SweepBackend:
    """Instantiate a built-in backend by name (``options`` go to its class)."""
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown sweep backend {name!r}; one of: "
            f"{', '.join(sorted(BACKENDS))}"
        ) from None
    return factory(**options)


__all__ = [
    "BACKENDS",
    "SweepBackend",
    "make_backend",
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
