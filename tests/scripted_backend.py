"""The tests' one fault injector: a backend that fails on a script.

``ScriptedBackend(inner, script, clock)`` wraps any backend. Before
each execute it asks ``script(call, now)`` — ``call`` counts executes
from 1, ``now`` is ``clock()`` — and obeys the answer: ``None`` passes
the call to ``inner``, :data:`RAISE` raises :class:`ScriptedFault`,
:data:`FAIL` answers with every outcome failed. A schedule is a plain
function, so each fixed fault kind is one line::

    lambda call, now: RAISE if call <= 2 else None        # burst of 2
    lambda call, now: FAIL if call <= 1 else None         # failed outcomes
    lambda call, now: RAISE if 5 <= now < 25 else None    # blackout
    lambda call, now: RAISE if 0 <= now < 9 and now % 2 < 1 else None  # flap
"""

from __future__ import annotations

from repro.backends import Backend, BatchResult, QueryOutcome
from repro.errors import BackendError

RAISE = "raise"
FAIL = "fail"


class ScriptedFault(BackendError):
    """What a call scripted to :data:`RAISE` raises."""


class ScriptedBackend(Backend):
    def __init__(self, inner: Backend, script, clock=lambda: 0.0) -> None:
        super().__init__(inner.name)
        self.inner, self.script, self.clock = inner, script, clock
        self.calls = 0

    def execute(self, queries):
        return self.execute_templated(queries)

    def execute_templated(self, queries, template_ids=None):
        self.calls += 1
        action = self.script(self.calls, self.clock())
        if action == RAISE:
            raise ScriptedFault(f"backend {self.name!r}: scripted fault")
        if action == FAIL:
            outcomes = tuple(
                QueryOutcome(query=q, ok=False, error="scripted failure")
                for q in queries
            )
            return BatchResult(backend=self.name, outcomes=outcomes)
        return self.inner.execute_templated(queries, template_ids)
