"""Collects what the package computes but does not return, and times its set-up.

`table1_cell` returns counts, not its trace, and `equivalence_sweep`
returns the worst gap, not each instance's result. The checks need both,
so `Capture` wraps the learners (`transductive.run` and
`inductive.run_inductive`) and `equivalence_check` and keeps what they
return. The learner wrapper also notes when it is entered, which ends
the set-up of `table1_cell` and `run_single`: `time_setup` calls one of
them, stops it there and returns the seconds that passed. It wraps one
call per run or instance, so its cost is negligible and it stays on in
untraced runs.
"""

from __future__ import annotations

import functools
import time

from megmc import inductive, transductive

from .rebind import Rebinder


class SetupDone(Exception):
    """Raised at entry into the learner while `time_setup` runs."""


class Capture:
    def __init__(self):
        self.traces = []
        self.equivalence = []
        self._stop_at_learner = False
        self._learner_entered = 0.0

    def clear(self):
        self.traces.clear()
        self.equivalence.clear()

    def install(self, rebinder: Rebinder):
        for learner in (transductive.run, inductive.run_inductive):
            rebinder.function(learner, self._learner(learner))
        rebinder.function(inductive.equivalence_check,
                          self._keep(inductive.equivalence_check, self.equivalence))

    def time_setup(self, fn, *args, **kwargs) -> float:
        """Seconds from calling fn until it enters a learner; fn ends there.

        The learner's arguments, such as the side embeddings, are
        evaluated before it is entered, so they count as set-up.
        """
        self._stop_at_learner = True
        start = time.perf_counter()
        try:
            fn(*args, **kwargs)
        except SetupDone:
            return self._learner_entered - start
        finally:
            self._stop_at_learner = False
        raise RuntimeError(f"{fn.__name__} returned without entering a learner")

    def _learner(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._learner_entered = time.perf_counter()
            if self._stop_at_learner:
                raise SetupDone
            result = fn(*args, **kwargs)
            self.traces.append(result)
            return result
        return wrapper

    @staticmethod
    def _keep(fn, sink: list):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append(result)
            return result
        return wrapper
