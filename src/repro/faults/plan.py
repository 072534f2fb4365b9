"""Declarative fault plans.

A :class:`FaultPlan` is a frozen value object describing *what* to
inject; the :class:`~repro.faults.injector.FaultInjector` decides
*when* from a counter-based hash stream seeded by the plan.  Plans are
hashable and picklable so they ride along on ``RunRequest`` and key
the run cache (a cached fault-free summary can never be replayed for a
faulted request, and vice versa).

A module-level ambient plan (``use_plan`` / ``current_plan``) lets the
CLI hand one plan to every ``RunRequest.point`` an experiment builds,
mirroring the ambient run engine in ``repro.sim.engine``.
"""

import contextlib
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

from repro import params as P
from repro.fields import check_fields

#: Actions accepted in ``FaultPlan.vault_events`` entries.
VAULT_ACTIONS = ("offline", "online")


class VaultEvent(NamedTuple):
    """One scheduled whole-vault transition: at global access
    ``tick``, take vault/bank ``vault`` offline or bring it online."""

    tick: int
    vault: int
    action: str

    LIMITS = {"tick": (0, None), "vault": (0, None),
              "action": VAULT_ACTIONS}


@dataclass(frozen=True)
class FaultPlan:
    """What to inject, expressed as per-access probabilities.

    Rates are per *eligible access* of the structure they name:
    ``data_flip_rate`` and ``tag_flip_rate`` are drawn on every vault
    (or shared-LLC bank) hit, ``directory_flip_rate`` on every
    duplicate-tag directory lookup, and ``stall_rate`` on every memory
    channel access.  ``double_bit_fraction`` classifies each fired
    bit-flip fault as double-bit (detected-uncorrectable under SECDED)
    with that probability; the remainder are single-bit (corrected).

    ``target`` confines array faults to one vault/bank id (``None``
    means all).  ``vault_events`` schedules whole-vault offline/online
    transitions as ``(access_tick, vault_id, action)`` triples against
    the global access counter.
    """

    seed: int = 0
    data_flip_rate: float = 0.0
    tag_flip_rate: float = 0.0
    directory_flip_rate: float = 0.0
    double_bit_fraction: float = 0.0
    stall_rate: float = 0.0
    stall_retries_max: int = P.FAULT_STALL_RETRIES_MAX
    target: Optional[int] = None
    vault_events: Tuple[VaultEvent, ...] = field(default=())

    #: Rates are probabilities (see repro.fields).
    LIMITS = {"data_flip_rate": (0, 1), "tag_flip_rate": (0, 1),
              "directory_flip_rate": (0, 1),
              "double_bit_fraction": (0, 1), "stall_rate": (0, 1),
              "stall_retries_max": (1, None), "target": (0, None)}

    def __post_init__(self):
        # A posted plan's events arrive as JSON lists.
        object.__setattr__(self, "vault_events", tuple(
            VaultEvent(*ev) for ev in self.vault_events))
        check_fields(self)
        ticks = [ev.tick for ev in self.vault_events]
        if ticks != sorted(ticks):
            raise ValueError("vault_events must be sorted by tick")

    def active(self):
        """Whether this plan can inject anything at all.

        Inactive plans (all rates zero, no scheduled events) never
        attach an injector, so they are bit-identical to running with
        no plan -- the fault-inertness guarantee.
        """
        return bool(
            self.data_flip_rate > 0.0
            or self.tag_flip_rate > 0.0
            or self.directory_flip_rate > 0.0
            or self.stall_rate > 0.0
            or self.vault_events)

    def canonical(self):
        """JSON-serializable form used for request keys and manifests."""
        return {
            "seed": self.seed,
            "data_flip_rate": self.data_flip_rate,
            "tag_flip_rate": self.tag_flip_rate,
            "directory_flip_rate": self.directory_flip_rate,
            "double_bit_fraction": self.double_bit_fraction,
            "stall_rate": self.stall_rate,
            "stall_retries_max": self.stall_retries_max,
            "target": self.target,
            "vault_events": [list(ev) for ev in self.vault_events],
        }


_ambient_plan = None


def current_plan():
    """The ambient plan installed by :func:`use_plan`, or ``None``."""
    return _ambient_plan


@contextlib.contextmanager
def use_plan(plan):
    """Install ``plan`` as the ambient fault plan for a ``with`` block.

    ``RunRequest.point``/``RunRequest.colocation`` pick the ambient
    plan up when no explicit one is passed, which is how the CLI's
    ``--faults`` flags reach every point of an experiment grid.
    """
    global _ambient_plan
    previous = _ambient_plan
    _ambient_plan = plan
    try:
        yield plan
    finally:
        _ambient_plan = previous
