"""Bit-identity of the fusion pass against unfused execution, per mode.

The module and test keep their original names so their test ids stay
comparable across runs; the generated-kernel backend they first compared
against is gone, and every fused chain now runs through
:func:`repro.kernels.interpreter.interpret_chain`.  Each of the twenty
seeded pipelines of :mod:`tests.test_chain_fusion_identity` runs in one
execution mode twice: with the planner's fusion pass on and with it off.
Every stored key, every value and every dtype must match *exactly*, and in
nonblocking mode the fused run must really contract chains while the
unfused run contracts none (paper section III-B: fusion is an execution
strategy, never a semantic).
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.test_chain_fusion_identity import _pipeline


@pytest.mark.parametrize(
    "nonblocking", [False, True], ids=["blocking", "nonblocking"]
)
@pytest.mark.parametrize("seed", range(20))
def test_codegen_bit_identity(seed, nonblocking):
    want, fused_off = _pipeline(seed, nonblocking, fusion=False)
    got, fused_on = _pipeline(seed, nonblocking, fusion=True)
    assert fused_off == 0
    if nonblocking:
        assert fused_on > 0, "pipeline no longer exercises fusion"
    else:
        assert fused_on == 0
    for w_tup, g_tup in zip(want, got):
        for w_arr, g_arr in zip(w_tup, g_tup):
            assert np.array_equal(w_arr, g_arr, equal_nan=True)
            assert w_arr.dtype == g_arr.dtype
