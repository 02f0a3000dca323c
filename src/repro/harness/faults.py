"""Deterministic fault injection for the distributed sweep backends.

Fault tolerance is only trustworthy if it is *tested*, and the failures
worth testing — a worker hard-killed mid-task, a simulation that hangs
while its TCP connection stays up, a result payload corrupted in flight —
are exactly the ones that are miserable to reproduce by hand.  This
module makes them reproducible: a :class:`FaultPlan` is a seeded,
JSON-serializable script of failures, each pinned to a named worker and
the ordinal of the task that triggers it.  Workers receive the plan
through the same channel as their runner parameters (process kwargs for
spawned workers, so plans survive the ``spawn`` start method), build a
:class:`FaultInjector`, and consult it at two seams:

* **on task receipt** (``kill``, ``hang``, ``drop``) — the worker dies,
  wedges while staying connected, or slams its connection shut;
* **on result delivery** (``corrupt``, ``delay``, ``duplicate``) — the
  worker sends a schema-garbage payload, sleeps before sending (lease
  renewal must carry it), or sends the same result twice.

Determinism is the point: the plan triggers on the Nth task *received by
that worker*, not on wall-clock time, so a chaos test injects exactly one
failure in exactly one place and then asserts the sweep still converges
to result-cache blobs byte-identical to a serial run.  The backends
accept a plan (or its dict form) via their ``fault_plan`` option and the
CLI via ``--fault-plan plan.json``, which is how the CI chaos lane
injects a worker kill into an otherwise ordinary sweep.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

#: fault kinds triggered when the matching task is received
RECEIPT_KINDS = ("kill", "hang", "drop")

#: fault kinds triggered when the matching task's result is delivered
DELIVERY_KINDS = ("corrupt", "delay", "duplicate")

#: every valid :attr:`FaultAction.kind`
FAULT_KINDS = RECEIPT_KINDS + DELIVERY_KINDS

#: exit status of a worker killed by fault injection
KILL_EXIT_CODE = 17


@dataclass(frozen=True)
class FaultAction:
    """One scripted failure: ``kind`` on worker ``worker``'s Nth task.

    ``on_task`` is 1-based and counts tasks *received* by that worker
    across reconnects (a dropped-and-redelivered task counts again —
    the count follows what the worker observes, which is what a real
    flaky worker's failure ordinal would do).  ``seconds`` parameterizes
    ``hang`` (0 = wedge until the process is torn down) and ``delay``.
    """

    kind: str
    worker: str
    on_task: int = 1
    seconds: float = 0.0

    def __post_init__(self) -> None:
        """Validate the action (kinds and ordinals are easy to typo)."""
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; one of: "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.on_task < 1:
            raise ValueError(f"on_task is 1-based, got {self.on_task}")

    def to_dict(self) -> dict:
        """JSON-safe form (inverse of :meth:`from_dict`)."""
        return {
            "kind": self.kind,
            "worker": self.worker,
            "on_task": self.on_task,
            "seconds": self.seconds,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FaultAction":
        """Rebuild an action from its dict form."""
        return cls(
            kind=str(d["kind"]),
            worker=str(d["worker"]),
            on_task=int(d.get("on_task", 1)),
            seconds=float(d.get("seconds", 0.0)),
        )


class FaultPlan:
    """A seeded, serializable script of worker failures.

    Build one with the fluent helpers and hand it to a backend::

        plan = FaultPlan(seed=7).kill("local-0").corrupt("local-1", on_task=2)
        SocketWorkStealingBackend(spawn_workers=2, fault_plan=plan)

    The seed drives nothing inside the plan itself (actions are pinned
    explicitly); it seeds the deterministic jitter of the backoff the
    injected workers use, so a chaos run replays byte-for-byte.
    """

    def __init__(
        self, seed: int = 0, actions: Sequence[FaultAction] = ()
    ) -> None:
        self.seed = int(seed)
        self.actions: List[FaultAction] = list(actions)

    # -- fluent builders ------------------------------------------------
    def add(self, action: FaultAction) -> "FaultPlan":
        """Append one action (returns self for chaining)."""
        self.actions.append(action)
        return self

    def kill(self, worker: str, on_task: int = 1) -> "FaultPlan":
        """Hard-exit ``worker`` when it receives its Nth task."""
        return self.add(FaultAction("kill", worker, on_task))

    def hang(
        self, worker: str, on_task: int = 1, seconds: float = 0.0
    ) -> "FaultPlan":
        """Wedge ``worker`` (connected, silent) on its Nth task."""
        return self.add(FaultAction("hang", worker, on_task, seconds))

    def drop(self, worker: str, on_task: int = 1) -> "FaultPlan":
        """Slam ``worker``'s connection shut on its Nth task."""
        return self.add(FaultAction("drop", worker, on_task))

    def corrupt(self, worker: str, on_task: int = 1) -> "FaultPlan":
        """Deliver a schema-garbage result for ``worker``'s Nth task."""
        return self.add(FaultAction("corrupt", worker, on_task))

    def delay(
        self, worker: str, on_task: int = 1, seconds: float = 1.0
    ) -> "FaultPlan":
        """Sleep before delivering ``worker``'s Nth result."""
        return self.add(FaultAction("delay", worker, on_task, seconds))

    def duplicate(self, worker: str, on_task: int = 1) -> "FaultPlan":
        """Deliver ``worker``'s Nth result twice."""
        return self.add(FaultAction("duplicate", worker, on_task))

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe form (what crosses the process boundary)."""
        return {
            "seed": self.seed,
            "actions": [a.to_dict() for a in self.actions],
        }

    @classmethod
    def from_dict(cls, d: Optional[dict]) -> "FaultPlan":
        """Rebuild a plan from its dict form (``None`` -> empty plan)."""
        if d is None:
            return cls()
        return cls(
            seed=int(d.get("seed", 0)),
            actions=[FaultAction.from_dict(a) for a in d.get("actions", ())],
        )

    def to_json(self) -> str:
        """Canonical JSON text (``--fault-plan`` file format)."""
        return json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse the ``--fault-plan`` file format."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("fault plan must be a JSON object")
        return cls.from_dict(doc)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        """Load a plan from a JSON file."""
        with open(path) as fh:
            return cls.from_json(fh.read())

    # -- queries --------------------------------------------------------
    def for_worker(self, worker: str) -> List[FaultAction]:
        """The actions targeting one worker, in plan order."""
        return [a for a in self.actions if a.worker == worker]

    def __bool__(self) -> bool:
        return bool(self.actions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return self.seed == other.seed and self.actions == other.actions


#: what backends accept as their ``fault_plan`` option
PlanLike = Union[FaultPlan, dict, None]


def coerce_plan(plan: PlanLike) -> FaultPlan:
    """Normalize a ``fault_plan`` option (plan, dict form, or ``None``)."""
    if isinstance(plan, FaultPlan):
        return plan
    return FaultPlan.from_dict(plan)


class FaultInjector:
    """One worker's runtime view of a plan: count tasks, fire actions.

    The injector is consulted twice per task — :meth:`on_task` when the
    task is received (advancing the counter and returning any receipt-
    seam action) and :meth:`on_delivery` when its result is about to be
    sent.  Each action fires at most once.  A worker with no scripted
    faults pays two dict lookups per task.
    """

    def __init__(self, plan: PlanLike, worker: str) -> None:
        plan = coerce_plan(plan)
        self.worker = worker
        self.tasks_received = 0
        self._receipt: Dict[int, FaultAction] = {}
        self._delivery: Dict[int, FaultAction] = {}
        for action in plan.for_worker(worker):
            seam = (
                self._receipt
                if action.kind in RECEIPT_KINDS
                else self._delivery
            )
            # first scripted action per (seam, ordinal) wins
            seam.setdefault(action.on_task, action)
        #: deterministic jitter stream for injected-worker backoff
        self.rng = random.Random(f"{plan.seed}:{worker}")

    def on_task(self) -> Optional[FaultAction]:
        """Record one task receipt; the receipt-seam action due, if any."""
        self.tasks_received += 1
        return self._receipt.pop(self.tasks_received, None)

    def on_delivery(self) -> Optional[FaultAction]:
        """The delivery-seam action due for the current task, if any."""
        return self._delivery.pop(self.tasks_received, None)


def backoff_seconds(
    attempt: int,
    base: float = 0.05,
    cap: float = 2.0,
    rng: Optional[random.Random] = None,
) -> float:
    """Exponential backoff with jitter: ``base * 2**attempt``, capped.

    ``attempt`` is 0-based.  With an ``rng`` the delay is scaled by a
    factor in [0.5, 1.5) so a fleet of peers desynchronizes; pass a
    seeded generator (the injector's, or one derived from the worker
    name) to keep runs deterministic.  This one helper is the backoff
    everywhere in the fault-tolerance layer: coordinator wait advice,
    worker reconnects, and batch lease polling.
    """
    delay = min(cap, base * (2.0 ** max(0, attempt)))
    if rng is not None:
        delay *= 0.5 + rng.random()
    return delay
