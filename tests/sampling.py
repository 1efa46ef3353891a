"""A sampling outcome source for a single state, for testing phase functions.

The protocol's SampleSource serves a wave: one draw per row, outcomes as
lists.  The phase functions also run on one RoundRegister, as the oracle's
BranchSource drives them; this source samples that single-state form with
the draw a wave row would make: one uniform draw from ``rng`` per
measurement.
"""

from qauthsim import qsim


class SingleStateSource:
    def __init__(self, rng):
        self.rng = rng

    def measure_z(self, state, q):
        return qsim.measure_z(state, q, self.rng.random())

    def measure_x(self, state, q):
        return qsim.measure_x(state, q, self.rng.random())

    def measure_bell(self, state, q1, q2):
        return qsim.measure_bell(state, q1, q2, self.rng.random())
