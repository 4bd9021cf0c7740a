"""Message (un)marshalling.

"Inspired by previous L4 marshalling frameworks, it overloads the C++
shift operators to marshal an object into the message or unmarshal it
again" (Section 4.5.6).  The Python equivalent overloads ``<<`` and
``>>`` on small stream objects; the simulation mostly cares about the
*wire size* a value set occupies, which drives transfer timing.
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


class Ostream:
    """Marshalling stream: ``os << a << b`` collects values."""

    def __init__(self):
        self.values: list = []

    def __lshift__(self, value: object) -> "Ostream":
        wire_size(value)  # reject unmarshallable values eagerly
        self.values.append(value)
        return self

    @property
    def size(self) -> int:
        """Wire size of everything marshalled so far."""
        return sum(wire_size(v) for v in self.values)

    def payload(self) -> tuple:
        """The message payload (what travels in the simulated packet)."""
        return tuple(self.values)


class Istream:
    """Unmarshalling stream: ``is_ >> ref`` pops values in order."""

    def __init__(self, payload):
        self._values = list(payload)
        self._index = 0

    def pop(self) -> object:
        """The next value (explicit-call style)."""
        if self._index >= len(self._values):
            raise ValueError("unmarshalling past the end of the message")
        value = self._values[self._index]
        self._index += 1
        return value

    def __iter__(self):
        while self._index < len(self._values):
            yield self.pop()

    @property
    def remaining(self) -> int:
        return len(self._values) - self._index
