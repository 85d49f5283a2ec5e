"""The planner's optimization passes.

All three passes exploit the same freedom: section IV of the paper defers
the *computation* of a sequence, promising only that objects' final values
match program order.  Intermediate values of opaque objects are unobservable
until the sequence completes, so ops whose effects cannot be observed may be
dropped (dead-op elimination), collapsed (fusion), or shared (CSE).
"""

from __future__ import annotations

from ..sequence import DeferredOp
from .graph import Graph

__all__ = ["dead_op_pass", "fusion_pass", "cse_pass"]


def _reads(op: DeferredOp, obj) -> bool:
    return any(r is obj for r in op.reads)


def dead_op_pass(
    ops: list[DeferredOp],
) -> tuple[list[DeferredOp], list[DeferredOp]]:
    """Drop ops whose output is overwritten before anything reads it.

    Backward scan; ``dead`` holds objects whose next surviving touch is a
    pure overwrite.  A kept op's reads resurrect those objects; an elided
    op's reads never happen, so they protect nothing (its inputs can be
    dead for even earlier writers).

    The hazard rule, exactly: an op marks its output dead *only if* it
    overwrites it **and** does not also read it.  An op whose ``writes``
    object appears in its own ``reads`` (accum/merge-style) consumes the
    prior value no matter what its overwrite flag claims, so it is a read
    barrier for earlier writers — never a license to elide them.
    """
    live: list[DeferredOp] = []
    elided: list[DeferredOp] = []
    dead: set[int] = set()
    for op in reversed(ops):
        if id(op.writes) in dead:
            elided.append(op)
            continue
        for r in op.reads:
            dead.discard(id(r))
        if op.overwrites_output and not _reads(op, op.writes):
            dead.add(id(op.writes))
        else:
            dead.discard(id(op.writes))
        live.append(op)
    live.reverse()
    elided.reverse()
    return live, elided


def fusion_pass(g: Graph, ops: list[DeferredOp], owner: list[int]) -> int:
    """Contract producer→consumer chains whose intermediates are unobservable.

    A producer P (pure overwrite of X, spec'd kernel) fuses with the one
    consumer Q of its result when Q is a single-input stream transform —
    a value map (``apply``), a predicate filter (``select``), or a row
    reduction (``reduce``) — over X, and X's value between P and Q can
    never be seen after the drain:

    * **case (a)** — Q writes X itself, accum-free, unmasked-or-replace:
      X ends up holding Q's result, which fusion computes identically;
    * **case (b)** — Q writes elsewhere and the next toucher of X is a pure
      overwrite: P's value of X is dead, so X keeps its pre-sequence
      content until that overwriter runs — exactly what skipping P's store
      leaves behind.

    Q must be the *only* reader of P's result (scanned at op granularity so
    members of earlier contractions are positioned correctly), and the
    contraction must not close a cycle through unrelated objects
    (P → m → Q via WAR/WAW chains); :meth:`Graph.has_path` guards that.

    The same argument then applies *to the chain itself*: whenever the
    just-absorbed link is overwrite-shaped (no accumulator, unmasked or
    replace-mode — so its output would hold exactly its mask-filtered T),
    its result is another un-materialized stream, and the pass greedily
    tries to absorb *its* sole consumer too.  Chains therefore grow to
    arbitrary length, one contraction (and one increment of the return
    value) per absorbed link; the semantic tests live in
    :mod:`repro.kernels.chain` and every chain built here runs through
    :func:`repro.kernels.interpreter.interpret_chain`.

    *owner* maps op position → owning node index and is updated in place.
    """
    from ...kernels.chain import is_stream_link, overwrite_shaped

    fused = 0
    for i, p_op in enumerate(ops):
        if owner[i] != i or not g.nodes[i].alive:
            continue
        node_p = g.nodes[i]
        if node_p.fused_chain is not None:
            continue
        p_spec = p_op.spec
        if (
            p_spec is None
            or p_spec.kernel is None
            or not p_op.overwrites_output
        ):
            continue

        tail_pos = i
        while True:
            X = ops[tail_pos].writes

            # who touches X after the chain's tail?  (op granularity,
            # program order)
            readers: list[int] = []
            next_writer: int | None = None
            for k in range(tail_pos + 1, len(ops)):
                o = ops[k]
                if _reads(o, X):
                    readers.append(k)
                if o.writes is X:
                    next_writer = k
                    break
            if len(readers) != 1:
                break
            j = readers[0]
            if owner[j] != j or not g.nodes[j].alive:
                break
            if g.nodes[j].fused_chain is not None:
                break
            q_op = ops[j]
            q_spec = q_op.spec
            if q_spec is None or not is_stream_link(q_spec):
                break
            if q_spec.inputs != (X,) or q_spec.mask is X:
                break
            if q_spec.desc.transpose0:
                break

            if next_writer == j:
                # case (a): the in-place consumer — X becomes Q's result
                if not overwrite_shaped(q_spec):
                    break
            else:
                # case (b): the tail's value of X must be provably dead
                if next_writer is None:
                    break  # X would keep the stream — must materialize
                w_op = ops[next_writer]
                if not w_op.overwrites_output or _reads(w_op, X):
                    break

            if g.has_path(i, j, skip_direct=True):
                break  # contraction would close a cycle

            g.contract(i, j)
            if node_p.fused_chain is None:
                node_p.fused_chain = [p_spec, q_spec]
            else:
                node_p.fused_chain.append(q_spec)
            owner[j] = i
            fused += 1

            # the chain streams past Q only when Q's own write would have
            # been a pure overwrite of its mask-filtered T
            if not overwrite_shaped(q_spec):
                break
            tail_pos = j
    return fused


def cse_pass(g: Graph, ops: list[DeferredOp], owner: list[int]) -> int:
    """Share the internal result T of identical pure ops on unchanged inputs.

    Two ops compute the same T when they have the same kind, operator,
    result domain, descriptor transform bits, input objects, and mask — and
    the content of every input (and the mask) is unchanged between them.
    Content versions are tracked as per-object write counters advanced in
    program order, so the fingerprint is purely structural: no values are
    hashed.

    The duplicate keeps its own write pipeline (its output, mask, accum and
    replace mode may all differ); only the kernel is skipped.  An edge
    source→duplicate sequences the reuse; fused nodes are excluded on both
    sides (their T never exists on its own).
    """
    hits = 0
    writeseq: dict[int, int] = {}
    sources: dict[tuple, int] = {}
    for k, op in enumerate(ops):
        node = g.nodes[owner[k]]
        spec = op.spec
        if (
            owner[k] == k
            and node.alive
            and node.fused_chain is None
            and spec is not None
            and spec.kernel is not None
            and spec.op_token is not None
        ):
            fp = (
                spec.kind,
                id(spec.op_token),
                id(spec.t_type),
                spec.desc.transpose0,
                spec.desc.transpose1,
                spec.desc.mask_complement,
                spec.desc.mask_structure,
                tuple(id(x) for x in spec.inputs),
                id(spec.mask) if spec.mask is not None else None,
                tuple(writeseq.get(id(x), 0) for x in spec.inputs),
                writeseq.get(id(spec.mask), 0) if spec.mask is not None else 0,
            )
            src = sources.get(fp)
            if src is not None and g.nodes[src].alive and not g.has_path(k, src):
                node.cse_source = src
                g.nodes[src].capture = True
                g.add_edge(src, k)
                hits += 1
            elif src is None:
                sources[fp] = k
        writeseq[id(op.writes)] = writeseq.get(id(op.writes), 0) + 1
    return hits
