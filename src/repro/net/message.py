"""Message framing for the simulated network.

A :class:`Message` is what travels between node endpoints.  The ``kind``
string dispatches to a handler at the receiving node; ``payload`` carries
arbitrary structured data (kept as plain Python objects — the simulation
never serializes, but ``size_bytes`` models what serialization would cost
on the wire).

``size_bytes`` is the *body* size exactly as the sender passed it; the
modeled on-the-wire cost including framing headers is :attr:`Message.wire_size`.
Keeping the field immutable means re-framing or copying a message (e.g.
``dataclasses.replace``) can never double-count :data:`HEADER_BYTES`.

When protocol validation is enabled (see :mod:`repro.net.protocol`),
construction checks ``kind`` and the payload's key set against the wire
registry, so a typo'd kind or a drifted payload shape fails at the send
site instead of diverging silently between peers.

Message isolation
-----------------
The real system serialized every message over TCP, so a receiver could
never mutate the sender's copy.  The simulation passes payloads by
reference, which makes cross-node aliasing possible.  The *isolation*
switch closes that gap at delivery time:

* ``freeze`` — the network delivers a :meth:`Message.clone` whose payload
  is recursively frozen (:class:`types.MappingProxyType` / tuples /
  frozensets), so any mutation attempt raises ``TypeError`` at the
  offending line.
* ``off`` — by-reference delivery (the perf-run default; cloning would
  distort timing benchmarks).

The level is the ``isolation`` field of :mod:`repro.checks`
(``REPRO_ISOLATE_MESSAGES``), captured by each
:class:`~repro.net.network.SimNetwork` at construction.  A clone can also
*copy* its payload (:data:`ISOLATE_COPY`): that is how
:meth:`~repro.net.network.SimNetwork.resend` gives each retry its own
payload, not an isolation level a check arms.
"""

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Dict

from repro.checks import ISOLATE_FREEZE, ISOLATE_OFF
from repro.checks import active as _checks
from repro.net import protocol

_MESSAGE_IDS = itertools.count(1)

#: The clone level that recursively copies the payload's containers.
ISOLATE_COPY = "copy"

#: Hot-path locals for Message construction (module-attr reads beat
#: attribute chains in the per-message constructor).
_KIND_IDS = protocol.KIND_IDS
_UNKNOWN_KIND_ID = protocol.UNKNOWN_KIND_ID

#: Nominal wire overhead of a framed message (headers), in bytes.
HEADER_BYTES = 64


def isolation_level() -> str:
    """The isolation level new networks will capture."""
    return _checks.isolation


class FrozenListView(tuple):
    """Read-only stand-in for a *list* inside a frozen payload.

    A plain tuple subclass, so mutation raises and hashing works — but
    :func:`thaw_payload` can still tell it apart from a payload value that
    was a tuple to begin with (tuples are often dict keys, e.g. routed
    ``op_id``s, and must survive a freeze/thaw round trip unchanged).
    """

    __slots__ = ()


class FrozenSetView(frozenset):
    """Read-only stand-in for a *set* inside a frozen payload."""

    __slots__ = ()


def copy_payload(value: Any) -> Any:
    """Recursively copy the container structure of a payload value.

    Only plain containers (dict/list/tuple/set) are copied — each keeps
    its type; leaves — scalars, strings, frozensets, and domain objects
    such as :class:`~repro.core.records.Record` — are shared, matching
    what serialization would preserve (domain objects cross the simulated
    wire via their own ``to_wire``/``from_wire`` copies).
    """
    if isinstance(value, dict):
        return {key: copy_payload(item) for key, item in value.items()}
    if isinstance(value, list):
        return [copy_payload(item) for item in value]
    if isinstance(value, tuple):
        return tuple(copy_payload(item) for item in value)
    if isinstance(value, set):
        return {copy_payload(item) for item in value}
    return value


def freeze_payload(value: Any) -> Any:
    """Recursively freeze a payload value into read-only views.

    dicts become :class:`types.MappingProxyType` over frozen copies,
    lists become :class:`FrozenListView` tuples, sets become
    :class:`FrozenSetView` frozensets; tuples and frozensets stay what
    they are (recursively frozen).  Mutating the result raises
    ``TypeError``/``AttributeError`` at the offending call site, and
    :func:`thaw_payload` restores the exact original container types.
    """
    if isinstance(value, (dict, MappingProxyType)):
        return MappingProxyType({key: freeze_payload(item) for key, item in value.items()})
    if isinstance(value, FrozenListView):
        return value
    if isinstance(value, list):
        return FrozenListView(freeze_payload(item) for item in value)
    if isinstance(value, tuple):
        return tuple(freeze_payload(item) for item in value)
    if isinstance(value, FrozenSetView):
        return value
    if isinstance(value, set):
        return FrozenSetView(freeze_payload(item) for item in value)
    return value


def thaw_payload(value: Any) -> Any:
    """Deep-copy a (possibly frozen) payload back into mutable containers.

    The inverse of :func:`freeze_payload`: receivers that legitimately
    need a private mutable working copy of a delivered payload (e.g. a
    routed envelope whose ``hops``/``path`` advance at every hop) thaw it
    first, which is also exactly the copy-on-receive discipline the
    aliasing lint asks for.  Container types are preserved: only the
    frozen *views* (mapping proxies, list/set views) turn back into their
    mutable originals; genuine tuples and frozensets stay immutable.
    """
    if isinstance(value, (dict, MappingProxyType)):
        return {key: thaw_payload(item) for key, item in value.items()}
    if isinstance(value, FrozenListView):
        return [thaw_payload(item) for item in value]
    if isinstance(value, list):
        return [thaw_payload(item) for item in value]
    if isinstance(value, tuple):
        return tuple(thaw_payload(item) for item in value)
    if isinstance(value, FrozenSetView):
        return {thaw_payload(item) for item in value}
    if isinstance(value, set):
        return {thaw_payload(item) for item in value}
    return value


@dataclass(slots=True)
class Message:
    """A single overlay message.

    Attributes
    ----------
    src, dst:
        Network addresses (opaque strings) of the endpoints.
    kind:
        Handler-dispatch tag, e.g. ``"insert_ack"`` or ``"join_request"``.
    payload:
        Structured message body.
    size_bytes:
        Modeled body size as passed by the sender; see :attr:`wire_size`
        for the framed on-the-wire size used in bandwidth serialization.
    msg_id:
        Unique id, handy for tracing and matching requests to replies.
        The default ``0`` means "allocate one": constructing ~10^7
        messages per scale run, a sentinel branch beats a
        ``field(default_factory=...)`` lambda call per message.
    kind_id:
        Dense integer id of ``kind`` (see :data:`repro.net.protocol.KIND_IDS`),
        interned once at construction so receivers dispatch with a flat
        table index instead of a string dict probe.  ``-1`` means
        "intern it for me"; an unregistered kind gets
        :data:`repro.net.protocol.UNKNOWN_KIND_ID`, which every dispatch
        table maps to its (empty) error slot.
    """

    src: str
    dst: str
    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)
    size_bytes: int = 256
    msg_id: int = 0
    kind_id: int = -1

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        if self.msg_id == 0:
            self.msg_id = next(_MESSAGE_IDS)
        if self.kind_id == -1:
            self.kind_id = _KIND_IDS.get(self.kind, _UNKNOWN_KIND_ID)
        # Validation stays strictly off the hot path when disabled: one
        # attribute read, no function call per message.
        if _checks.validate:
            protocol.validate_wire(self.kind, self.payload)

    @property
    def wire_size(self) -> int:
        """Framed size on the wire: body plus :data:`HEADER_BYTES`."""
        return self.size_bytes + HEADER_BYTES

    @classmethod
    def frame(
        cls,
        src: str,
        dst: str,
        kind: str,
        payload: Dict[str, Any],
        size_bytes: int,
    ) -> "Message":
        """Hot-path constructor with identical semantics to ``Message(...)``.

        Skips the dataclass ``__init__``/``__post_init__`` indirection
        (measurable at ~10^7 messages per scale run) but performs the
        exact same work in the same order: size check, message-id
        allocation, kind-id interning, and the validation gate.
        """
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        msg = _NEW_MESSAGE(cls)
        msg.src = src
        msg.dst = dst
        msg.kind = kind
        msg.payload = payload
        msg.size_bytes = size_bytes
        msg.msg_id = next(_MESSAGE_IDS)
        msg.kind_id = _KIND_IDS.get(kind, _UNKNOWN_KIND_ID)
        if _checks.validate:
            protocol.validate_wire(kind, payload)
        return msg

    def clone(self, level: str = ISOLATE_COPY, fresh_id: bool = False) -> "Message":
        """Re-frame this message with an isolated payload.

        The single copy path shared by the delivery sanitizer and any
        retry/failover re-send: ``size_bytes`` is carried over verbatim
        (it is the sender-declared body size, so re-framing never
        double-counts :data:`HEADER_BYTES`) and the payload is isolated
        per ``level`` (``copy`` → recursively copied containers,
        ``freeze`` → recursively frozen views, ``off`` → shared).

        ``fresh_id=False`` (the default, used at delivery) keeps
        ``msg_id`` so traces correlate the delivered clone with the send;
        re-send paths pass ``fresh_id=True`` so each attempt is a
        distinct wire message.
        """
        if level == ISOLATE_FREEZE:
            payload = freeze_payload(self.payload)
        elif level == ISOLATE_COPY:
            payload = copy_payload(self.payload)
        elif level == ISOLATE_OFF:
            payload = self.payload
        else:
            raise ValueError(
                f"unknown clone level: {level!r} "
                f"(expected one of {(ISOLATE_OFF, ISOLATE_COPY, ISOLATE_FREEZE)})"
            )
        return Message(
            src=self.src,
            dst=self.dst,
            kind=self.kind,
            payload=payload,
            size_bytes=self.size_bytes,
            msg_id=0 if fresh_id else self.msg_id,
            kind_id=self.kind_id,
        )


#: ``object.__new__`` bound once for :meth:`Message.frame`.
_NEW_MESSAGE = Message.__new__
