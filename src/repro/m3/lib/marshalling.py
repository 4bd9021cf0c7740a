"""Message marshalling: the wire size of a payload.

"Inspired by previous L4 marshalling frameworks, it overloads the C++
shift operators to marshal an object into the message or unmarshal it
again" (Section 4.5.6).  Payloads travel as Python values here; what
the simulation needs is the *wire size* a value set occupies, which
drives transfer timing.
"""

from __future__ import annotations


def wire_size(value: object) -> int:
    """Bytes a value occupies in a message (8-byte aligned fields)."""
    # Nearly every marshalled value is a word or a tuple of words:
    # settle those on the exact type before the isinstance chain.
    kind = type(value)
    if kind is int or value is None:
        return 8
    if kind is tuple:
        return 8 + sum([wire_size(item) for item in value])
    if isinstance(value, (int, float)):  # bool and int subclasses too
        return 8
    if isinstance(value, str):
        return 8 + _align8(len(value.encode("utf-8")))
    if isinstance(value, (bytes, bytearray, memoryview)):
        return 8 + _align8(len(value))
    if isinstance(value, (tuple, list)):
        return 8 + sum(wire_size(item) for item in value)
    if isinstance(value, dict):
        return 8 + sum(wire_size(k) + wire_size(v) for k, v in value.items())
    if callable(value):
        # An entry point travels as a single address (the simulation
        # carries the Python callable where hardware carries a PC value).
        return 8
    raise TypeError(f"cannot marshal value of type {type(value).__name__}")


def _align8(n: int) -> int:
    return (n + 7) & ~7

