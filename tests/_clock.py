"""A clock for deadline tests that moves only when the test says so.

It stands in for ``time`` in the two solver modules that read the clock,
``simplex`` and ``rfe``. Its reading stays put while a solve runs, so no
count of pivots or of clock reads shifts where a deadline falls: it moves
one second on each call of the functions a test wraps with ``tick_on``.
With the clock at 0, a deadline of k + 0.5 lets the first k wrapped calls run
and stops every later one.
"""

from gridopt import rfe, simplex


class Clock:
    def __init__(self, monkeypatch):
        self.now = 0.0
        self._patch = monkeypatch
        monkeypatch.setattr(simplex, "time", self)
        monkeypatch.setattr(rfe, "time", self)

    def monotonic(self) -> float:
        return self.now

    def tick_on(self, module, name: str) -> None:
        """Move the clock one second at each call of ``module.name``, before it runs."""
        real = getattr(module, name)

        def ticking(*args, **kwargs):
            self.now += 1.0
            return real(*args, **kwargs)

        self._patch.setattr(module, name, ticking)
