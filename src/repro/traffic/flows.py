"""Raw (sampled) flow records as emitted by a monitor's NetFlow export."""

from typing import NamedTuple


class _FlowFields(NamedTuple):
    monitor: str
    start: float
    src_addr: int
    dst_addr: int
    dst_port: int
    protocol: int
    octets: int
    packets: int


class FlowRecord(_FlowFields):
    """One sampled flow observed at one monitor.

    ``octets`` is the *reported* (sampled) byte count; because routers
    sample packets (1/100 on Abilene, 1/1000 on GÉANT), the true flow may
    be much larger — the reason the paper's 50 KB threshold is
    "conservative enough to capture most alpha flows".

    A tuple: immutable, hashable, and equal to any tuple with the same
    fields in the same order (equality is tuple equality).  The generator
    builds one per sampled flow, and a tuple is a third of the cost of a
    frozen dataclass.
    """

    __slots__ = ()

    def __new__(
        cls,
        monitor: str,
        start: float,
        src_addr: int,
        dst_addr: int,
        dst_port: int,
        protocol: int,
        octets: int,
        packets: int,
    ) -> "FlowRecord":
        if octets < 0 or packets < 0:
            raise ValueError("octets/packets must be non-negative")
        return tuple.__new__(
            cls, (monitor, start, src_addr, dst_addr, dst_port, protocol, octets, packets)
        )
