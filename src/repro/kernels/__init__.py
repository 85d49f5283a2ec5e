"""Fused-chain kernels (``repro.kernels``).

The planner decides *what* runs (the DAG, fusion chains, levels); the
execution backend decides *where* (serial / threads / processes); this
package runs a fused chain ``[producer, link, ...]`` with the hand-written
numpy kernels, streaming the producer's result through every link.

* :mod:`.chain` — the fusion pass's two predicates (which ops may join a
  chain, and which links keep it streaming);
* :mod:`.interpreter` — :func:`interpret_chain`, the one execution path of
  every fused chain.
"""

from __future__ import annotations

from .chain import is_stream_link, overwrite_shaped
from .interpreter import InterpreterBackend, interpret_chain

__all__ = [
    "InterpreterBackend",
    "interpret_chain",
    "is_stream_link",
    "overwrite_shaped",
]
