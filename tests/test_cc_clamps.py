"""The per-ACK clamps and EWMA weight agree with their builtin forms.

``CcAlgorithm.clamp_rate``/``clamp_window`` and ``Hpcc._ewma`` spell
``min``/``max`` out as comparisons (they run on every ACK, on both
engines).  These properties hold them to the builtin expressions bit
for bit, over ties, signed zeros, infinities and NaN, and check that
``CcEnv`` still pickles and compares as a plain frozen dataclass once
it carries its derived ``bdp``.
"""

from __future__ import annotations

import dataclasses
import pickle
import struct
from math import isnan

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import CcAlgorithm, CcEnv
from repro.core.hpcc import Hpcc
from repro.fluid.adapters import FluidClock

#: Every float, the specials drawn often: the comparisons' edge cases.
SPECIAL = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, float("inf"), float("-inf"), float("nan"),
     12.5, 1000.0, 1e-4]
)
FLOATS = st.one_of(SPECIAL, st.floats(allow_nan=True, allow_infinity=True))


def bits(x: float) -> bytes | str:
    """``x``'s IEEE bytes, which tell -0.0 from 0.0, or ``"nan"``: a NaN's
    payload out of arithmetic on two NaNs depends on the interpreter's
    code path (a specialised float opcode may take the other operand),
    not on the expression."""
    return "nan" if isnan(x) else struct.pack("<d", x)


def outcome(fn, *args):
    """``fn(*args)``'s bytes, or the type of the exception it raised."""
    try:
        return bits(fn(*args))
    except ArithmeticError as exc:
        return type(exc)


def env(line_rate: float = 12.5, base_rtt: float = 13_000.0,
        mtu: int = 1000) -> CcEnv:
    return CcEnv(sim=None, line_rate=line_rate, base_rtt=base_rtt, mtu=mtu,
                 header=48)


class TestClampsMatchBuiltins:
    @settings(max_examples=400, deadline=None)
    @given(line=FLOATS, rate=FLOATS)
    def test_clamp_rate_default_floor(self, line, rate):
        algo = CcAlgorithm(env(line_rate=line))
        expect = max(line * 1e-4, min(line, rate))
        assert bits(algo.clamp_rate(rate)) == bits(expect)

    @settings(max_examples=400, deadline=None)
    @given(line=FLOATS, rate=FLOATS, floor=FLOATS)
    def test_clamp_rate_with_floor(self, line, rate, floor):
        algo = CcAlgorithm(env(line_rate=line))
        expect = max(floor, min(line, rate))
        assert bits(algo.clamp_rate(rate, floor)) == bits(expect)

    @settings(max_examples=400, deadline=None)
    @given(line=FLOATS, base_rtt=FLOATS, window=FLOATS,
           mtu=st.one_of(st.sampled_from([0, 1, 1000, 9000]),
                         st.integers(-2**40, 2**40)))
    def test_clamp_window(self, line, base_rtt, window, mtu):
        e = env(line_rate=line, base_rtt=base_rtt, mtu=mtu)
        algo = CcAlgorithm(e)
        expect = max(float(mtu), min(e.bdp, window))
        assert bits(algo.clamp_window(window)) == bits(expect)

    @pytest.mark.parametrize("window", [1000.0, 162_500.0])
    def test_clamp_window_ties_return_the_bound(self, window):
        """At a tie the builtins return their first argument: the bound."""
        algo = CcAlgorithm(env())
        assert bits(algo.clamp_window(window)) == bits(window)
        assert algo.clamp_window(-0.0) == 1000.0


class TestEwmaWeight:
    @settings(max_examples=400, deadline=None)
    @given(T=FLOATS, tau=FLOATS, u=FLOATS, u_max=FLOATS)
    def test_ewma_matches_builtin_min(self, T, tau, u, u_max):
        algo = Hpcc(env())
        algo.env = env(base_rtt=T)

        def builtin(u_max, tau):
            weight = min(tau, T) / T
            return (1.0 - weight) * u + weight * u_max

        def trimmed(u_max, tau):
            algo.u = u
            return algo._ewma(u_max, tau)

        assert outcome(trimmed, u_max, tau) == outcome(builtin, u_max, tau)


class TestCcEnvValue:
    def test_bdp_is_derived_once(self):
        e = env()
        assert e.bdp == 12.5 * 13_000.0
        assert dataclasses.replace(e, line_rate=25.0).bdp == 25.0 * 13_000.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            e.bdp = 1.0

    def test_pickles_and_compares_equal(self):
        e = CcEnv(sim=FluidClock(), line_rate=12.5, base_rtt=9_000.0,
                  mtu=1000, header=48)
        back = pickle.loads(pickle.dumps(e))
        assert back.bdp == e.bdp
        assert dataclasses.replace(back, sim=e.sim) == e
        assert env() == env() and hash(env()) == hash(env())
        assert env() != env(line_rate=25.0)
        assert "bdp" not in repr(env())
