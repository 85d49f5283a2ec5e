"""Chain shapes: what the planner may stream.

A *fused chain* is an ordered list of OpSpecs ``[P, L1, ..., Ln]`` the
planner contracted into one node: P is any standard producer (its kernel
computes T), every later link is a single-input stream transform — an
``apply`` value map, a ``select`` predicate, or a matrix→vector ``reduce``
— and every link but the last is *overwrite-shaped* (no accumulator,
unmasked or replace-mode), so the intermediate it would have stored equals
its mask-filtered T cast to its own domain.  The tail keeps its full write
pipeline (mask/accum/replace against the real output).

:func:`is_stream_link` and :func:`overwrite_shaped` are the two semantic
tests the fusion pass uses to grow chains; any chain the planner builds is
run by :func:`repro.kernels.interpreter.interpret_chain`.
"""

from __future__ import annotations

__all__ = ["is_stream_link", "overwrite_shaped"]


def is_stream_link(spec) -> bool:
    """Can *spec* consume a producer's un-materialized stream?  True for
    the three single-input transforms fusion understands."""
    return (
        spec.post is not None
        or spec.reducer is not None
        or spec.selector is not None
    )


def overwrite_shaped(spec) -> bool:
    """Would *spec*'s output hold exactly its mask-filtered T?  (No
    accumulator, and unmasked or replace-mode — the pair-fusion case (a)
    shape, and the condition for a chain link to keep streaming.)"""
    return spec.accum is None and (
        spec.mask is None or spec.desc.replace
    )
