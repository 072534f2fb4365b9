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
import numbers
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro import params as P

#: Actions accepted in ``FaultPlan.vault_events`` entries.
VAULT_ACTIONS = ("offline", "online")


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
    vault_events: Tuple[Tuple[int, int, str], ...] = field(default=())

    def __post_init__(self):
        # Types first: a posted plan is rebuilt from JSON, and a float
        # or bool where the injector does integer arithmetic would be
        # keyed apart from its int form, fail midway, or (a float
        # target) match no vault and inject nothing.
        for name in ("data_flip_rate", "tag_flip_rate",
                     "directory_flip_rate", "double_bit_fraction",
                     "stall_rate"):
            value = getattr(self, name)
            if isinstance(value, bool) \
                    or not isinstance(value, numbers.Real):
                raise ValueError("%s must be a real number, got %r"
                                 % (name, value))
            if not 0.0 <= value <= 1.0:
                raise ValueError("%s must be in [0, 1], got %r"
                                 % (name, value))
        _require_int("seed", self.seed)
        _require_int("stall_retries_max", self.stall_retries_max)
        if self.stall_retries_max < 1:
            raise ValueError("stall_retries_max must be >= 1")
        if self.target is not None:
            _require_int("target", self.target)
            if self.target < 0:
                raise ValueError("target must be a vault/bank id or None")
        events = tuple(tuple(ev) for ev in self.vault_events)
        last_tick = 0
        for ev in events:
            if len(ev) != 3:
                raise ValueError("vault event must be "
                                 "(tick, vault, action): %r" % (ev,))
            tick, vault, action = ev
            _require_int("vault event tick", tick)
            _require_int("vault event vault", vault)
            if tick < 0 or vault < 0:
                raise ValueError("negative tick/vault in event: %r"
                                 % (ev,))
            if tick < last_tick:
                raise ValueError("vault_events must be sorted by tick")
            if action not in VAULT_ACTIONS:
                raise ValueError("unknown vault action %r (expected "
                                 "one of %r)" % (action, VAULT_ACTIONS))
            last_tick = tick
        object.__setattr__(self, "vault_events", events)

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


def _require_int(name, value):
    """Raise ValueError unless ``value`` is an int (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("%s must be an integer, got %r" % (name, value))


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
