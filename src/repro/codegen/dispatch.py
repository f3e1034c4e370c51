"""Mixed dense/sparse execution planning -- the counting oracle's path.

:meth:`repro.pipeline.SynthesisResult.execute` is the one caller of
:func:`execute_plan`; ``run()`` executes the same declarations as the
kernel plan's ``sparse`` steps (:mod:`repro.kernels.plan`).

Statements of a formula sequence whose operands are declared sparse are
dispatched to the nonzero-iterating executor
(:mod:`repro.sparse.executor`); dense statements keep the existing
loop-IR path (fusion -> :func:`repro.codegen.builder.build_fused` ->
:mod:`repro.codegen.interp`).  The sequence is cut into maximal
consecutive runs of same-kind statements; arrays flow between segments
through one shared environment, so a sparse statement may consume a
dense temporary and vice versa.

Dispatch rule: a statement goes sparse iff any referenced tensor is
annotated ``sparse(fill)`` with fill < 1 (:func:`~repro.sparse.estimate.
is_sparse_statement`).  Dynamic sparsity of intermediates is exploited
opportunistically by the sparse executor itself (it compresses dense
operands on use) but does not change the dispatch decision, which is a
compile-time choice from declarations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.codegen.builder import build_fused
from repro.codegen.interp import execute as interp_execute
from repro.codegen.loops import Block
from repro.engine.counters import Counters
from repro.engine.executor import FunctionImpl
from repro.expr.ast import Statement
from repro.expr.indices import Bindings
from repro.fusion.memopt import minimize_memory
from repro.fusion.tree import build_forest
from repro.sparse.estimate import is_sparse_statement


@dataclass(frozen=True)
class DenseSegment:
    """A maximal run of dense statements, lowered to fused loop IR."""

    statements: Tuple[Statement, ...]
    block: Block


@dataclass(frozen=True)
class SparseSegment:
    """A maximal run of statements with declared-sparse operands."""

    statements: Tuple[Statement, ...]


Segment = Union[DenseSegment, SparseSegment]


@dataclass(frozen=True)
class ExecutionPlan:
    """Ordered segments covering a whole formula sequence."""

    segments: Tuple[Segment, ...]

    @property
    def sparse_statements(self) -> Tuple[Statement, ...]:
        return tuple(
            s
            for seg in self.segments
            if isinstance(seg, SparseSegment)
            for s in seg.statements
        )

    @property
    def dense_statements(self) -> Tuple[Statement, ...]:
        return tuple(
            s
            for seg in self.segments
            if isinstance(seg, DenseSegment)
            for s in seg.statements
        )

    def describe(self) -> str:
        lines: List[str] = []
        for seg in self.segments:
            kind = "sparse" if isinstance(seg, SparseSegment) else "dense"
            names = ", ".join(s.result.name for s in seg.statements)
            lines.append(f"{kind}: {names}")
        return "\n".join(lines)


def _lower_dense(
    statements: Tuple[Statement, ...],
    bindings: Optional[Bindings],
    is_last_segment: bool,
    budget=None,
) -> Block:
    """Fuse and lower one dense run exactly like the pipeline does."""
    forest = build_forest(list(statements))
    blocks: List[Block] = []
    for k, root in enumerate(forest):
        shared = not (is_last_segment and k == len(forest) - 1)
        result = minimize_memory(
            root, bindings, include_output=shared, budget=budget
        )
        blocks.append(build_fused(result))
    return tuple(n for blk in blocks for n in blk)


def plan_execution(
    statements: Sequence[Statement],
    bindings: Optional[Bindings] = None,
    budget=None,
) -> ExecutionPlan:
    """Cut a formula sequence into dense/sparse segments and lower the
    dense ones to fused loop structures.

    ``budget`` (a shared :class:`~repro.robustness.budget.
    BudgetTracker`) bounds the per-segment fusion DP exactly as in the
    dense pipeline path.
    """
    runs: List[Tuple[bool, List[Statement]]] = []
    for stmt in statements:
        sparse = is_sparse_statement(stmt)
        if runs and runs[-1][0] == sparse:
            runs[-1][1].append(stmt)
        else:
            runs.append((sparse, [stmt]))
    segments: List[Segment] = []
    for k, (sparse, run) in enumerate(runs):
        if sparse:
            segments.append(SparseSegment(tuple(run)))
        else:
            block = _lower_dense(
                tuple(run),
                bindings,
                is_last_segment=(k == len(runs) - 1),
                budget=budget,
            )
            segments.append(DenseSegment(tuple(run), block))
    return ExecutionPlan(tuple(segments))


def execute_plan(
    plan: ExecutionPlan,
    inputs: Mapping[str, object],
    bindings: Optional[Bindings] = None,
    functions: Optional[Mapping[str, FunctionImpl]] = None,
    counters: Optional[Counters] = None,
    *,
    semiring: str = "plus_times",
) -> Dict[str, np.ndarray]:
    """Run a mixed plan; returns the full array environment.

    Dense segments run on the loop-IR interpreter, sparse segments on
    the nonzero-iterating executor; both tally into the same counters
    and both evaluate under the selected ``semiring``.  Inputs may be
    dense arrays or sparse tensors (sparse inputs consumed by a *dense*
    segment are densified on entry).
    """
    from repro.sparse.executor import run_statements as sparse_run
    from repro.sparse.formats import as_dense

    counters = counters if counters is not None else Counters()
    env: Dict[str, object] = dict(inputs)
    for seg in plan.segments:
        if isinstance(seg, SparseSegment):
            env = dict(
                sparse_run(
                    seg.statements, env, bindings, functions, counters,
                    semiring=semiring,
                )
            )
        else:
            dense_env = {k: as_dense(v) for k, v in env.items()}
            env = dict(
                interp_execute(
                    seg.block, dense_env, bindings, functions, counters,
                    semiring=semiring,
                )
            )
    return {k: as_dense(v) for k, v in env.items()}
