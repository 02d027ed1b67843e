"""The tests' one injectable clock: time moves only when a test moves it.

``FakeClock()`` reads 0.0 until a test calls ``advance(seconds)`` or
sets ``now``; pass it wherever a component takes ``clock=``.
"""

from __future__ import annotations


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds
