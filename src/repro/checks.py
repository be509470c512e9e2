"""The runtime checks: one record, one environment parser, one scope.

Four correctness harnesses ride along with the simulator, all off by
default because each costs time on the per-message path:

``validate`` (``REPRO_PROTOCOL_VALIDATE``)
    Every :class:`~repro.net.message.Message` is checked against the wire
    registry at construction (:func:`repro.net.protocol.validate_wire`).
``isolation`` (``REPRO_ISOLATE_MESSAGES`` = ``freeze``)
    The network delivers a clone whose payload is frozen into read-only
    views, so a receiver can neither reach nor mutate the sender's objects,
    as TCP serialization guaranteed the real deployment.
``fuzz`` / ``fuzz_seed`` (``REPRO_SCHEDULE_FUZZ`` = ``shuffle`` |
``reverse``, ``REPRO_SCHEDULE_FUZZ_SEED``)
    Same-timestamp events fire in a seeded perturbed order instead of
    FIFO (see :mod:`repro.sim.events`).
``track_resources`` (``REPRO_TRACK_RESOURCES``)
    Every simulator carries a register/release ledger that must drain to
    empty at quiescence (see :mod:`repro.sim.resources`).

:data:`active` is the one live record, filled from the environment at
import.  Everything built around a simulator snapshots it at construction
— :class:`~repro.sim.events.EventQueue` the tie-break,
:class:`~repro.sim.kernel.Simulator` the ledger,
:class:`~repro.net.network.SimNetwork` the isolation level — so a
:func:`configure` block only needs to wrap *construction*, and the hot
paths test an instance attribute.  ``Message`` is built without a
simulator, so validation is the one check read live from :data:`active`.
"""

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

#: Isolation levels: by-reference delivery, or read-only payload views.
ISOLATE_OFF = "off"
ISOLATE_FREEZE = "freeze"
ISOLATION_LEVELS = (ISOLATE_OFF, ISOLATE_FREEZE)

#: Tie-break equal-time events in scheduling (``seq``) order — the default.
FUZZ_OFF = "off"
#: Tie-break equal-time events in a seeded pseudo-random order.
FUZZ_SHUFFLE = "shuffle"
#: Tie-break equal-time events in reverse scheduling order (LIFO).
FUZZ_REVERSE = "reverse"
FUZZ_MODES = (FUZZ_OFF, FUZZ_SHUFFLE, FUZZ_REVERSE)

_FALSEY = ("", "0", "off", "false", "no")
_TRUTHY = ("1", "on", "true", "yes")


def _choices(off: Any, on: Any, *named: str) -> Dict[str, Any]:
    """Accepted spellings of one variable -> the value each selects.

    ``on`` is what a bare truthy spelling arms; ``None`` means the
    variable has no default armed value and must name one.
    """
    table = dict.fromkeys(_FALSEY, off)
    if on is not None:
        table.update(dict.fromkeys(_TRUTHY, on))
    table.update((name, name) for name in named)
    return table


#: Record field -> (environment variable, accepted spellings).
_ENV: Dict[str, Tuple[str, Dict[str, Any]]] = {
    "validate": ("REPRO_PROTOCOL_VALIDATE", _choices(False, True)),
    "isolation": (
        "REPRO_ISOLATE_MESSAGES",
        _choices(ISOLATE_OFF, ISOLATE_FREEZE, ISOLATE_FREEZE),
    ),
    "fuzz": ("REPRO_SCHEDULE_FUZZ", _choices(FUZZ_OFF, None, FUZZ_SHUFFLE, FUZZ_REVERSE)),
    "track_resources": ("REPRO_TRACK_RESOURCES", _choices(False, True)),
}
_SEED_ENV = "REPRO_SCHEDULE_FUZZ_SEED"


@dataclass(slots=True)
class Checks:
    """Which runtime checks are armed (defaults: none)."""

    validate: bool = False
    isolation: str = ISOLATE_OFF
    fuzz: str = FUZZ_OFF
    fuzz_seed: int = 0
    track_resources: bool = False


def from_env(environ: Optional[Mapping[str, str]] = None) -> Checks:
    """The record the ``REPRO_*`` variables describe.

    Every variable shares one falsey set (blank, ``0``, ``off``,
    ``false``, ``no``); a value that is not an accepted spelling raises
    ``ValueError`` naming the variable, so a typo never silently arms or
    disarms a check.
    """
    environ = os.environ if environ is None else environ
    record = Checks()
    for field, (variable, accepted) in _ENV.items():
        raw = environ.get(variable, "").strip().lower()
        if raw not in accepted:
            spellings = ", ".join(repr(s) for s in accepted if s)
            raise ValueError(f"{variable}={raw!r} is not one of {spellings} (or blank)")
        setattr(record, field, accepted[raw])
    raw = environ.get(_SEED_ENV, "").strip()
    try:
        record.fuzz_seed = int(raw) if raw else 0
    except ValueError:
        raise ValueError(f"{_SEED_ENV}={raw!r} is not an integer") from None
    return record


#: The live record.  Mutated in place (never rebound), so modules may hold
#: a direct reference to it.
active = from_env()


@contextmanager
def configure(
    validate: Optional[bool] = None,
    isolation: Optional[str] = None,
    fuzz: Optional[str] = None,
    fuzz_seed: Optional[int] = None,
    track_resources: Optional[bool] = None,
) -> Iterator[Checks]:
    """Run a block with some checks changed; ``None`` leaves one as it is.

    Restores the previous record on exit.  Simulators, queues and networks
    constructed inside the block keep what they captured after it ends.
    """
    if isolation is not None and isolation not in ISOLATION_LEVELS:
        raise ValueError(
            f"unknown isolation level {isolation!r} (expected one of {ISOLATION_LEVELS})"
        )
    if fuzz is not None and fuzz not in FUZZ_MODES:
        raise ValueError(f"unknown schedule-fuzz mode {fuzz!r} (expected one of {FUZZ_MODES})")
    changes = {
        "validate": validate,
        "isolation": isolation,
        "fuzz": fuzz,
        "fuzz_seed": fuzz_seed,
        "track_resources": track_resources,
    }
    changes = {field: value for field, value in changes.items() if value is not None}
    previous = {field: getattr(active, field) for field in changes}
    for field, value in changes.items():
        setattr(active, field, value)
    try:
        yield active
    finally:
        for field, value in previous.items():
            setattr(active, field, value)


def armed() -> List[Tuple[str, str]]:
    """``(environment variable, description)`` of every check that is on.

    Timed runs refuse to start while this is non-empty: each entry names
    the variable to unset.
    """
    labels = {
        "validate": "protocol wire validation",
        "isolation": f"message isolation (level={active.isolation!r})",
        "fuzz": f"schedule fuzz (mode={active.fuzz!r})",
        "track_resources": "resource tracking",
    }
    defaults = Checks()
    return [
        (_ENV[field][0], label)
        for field, label in labels.items()
        if getattr(active, field) != getattr(defaults, field)
    ]
