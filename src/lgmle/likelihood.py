"""Exact likelihood on the distance-layer chain by variable elimination.

The joint law of outcomes factorizes over chain blocks: block q couples the
latent weights of layers q and q+1 through the product of edge kernels over
the cross edges q<->q+1 and the within edges of layer q+1.  Eliminating the
layer blocks in order gives the exact marginal likelihood.

A block is fully described by its block type: the two layer widths and, per
edge in edge order, the block axes of its endpoints and its outcome index.
The round-robin schedule is periodic, so a long chain has few distinct types
(6 of 1500 blocks at N=3000, n=2), and datasets on one layer structure share
most of them.  Each type is built once, in the type table of the chain
structure that every model of a (layers, kernel, support) can share, and a
model is that structure plus the type id of each block of each of its
datasets: one dataset, or R replicates swept in lockstep.  A block acts
on state vectors x of s^|V_q| entries as ``x @ block``, stored by one of two
engines, picked from the layer widths:

* dense: the type's s^|V_q| x s^|V_q+1| transition matrix, built once by
  broadcast-adding its edge log tables.  Used when the chain's blocks hold
  at most ``_BLOCK_CACHE_BUDGET`` entries in total.
* factored: a ``_FactoredBlock`` of pairwise edge factors, contracted with
  the state vector by variable elimination (Koller & Friedman 2009, ch. 9)
  in an order compiled once per positional plan: the source layer's nodes
  are summed out one at a time, smallest result first, each against the
  product of the factors that touch it, folded in pairs from edge tables
  scaled once per outcome, and built once per structure for each outcome
  combination it folds.  Each step runs as one batched ``np.matmul``: the
  running tensor, permuted to (batch, rows, summed axis), times the
  operand, stored as (batch, summed axis, columns); the final factors over
  the target layer alone multiply in by broadcasting.  A step loops over at
  most s^(max(|V_q|, |V_q+1|)+1) index combinations, so chains whose dense
  blocks would not fit in memory (n=4 and n=5 at small s) stay cheap.

All arithmetic runs in rescaled probability space with per-block shifts
tracked in log scale (the standard scaled forward-backward scheme), so block
kernels as small as epsilon^(n(n-1)) cause no underflow and the returned
log-likelihood is exact to float64 roundoff.

Every sweep takes one step per block, x -> (x @ B) * p scaled by its sum
(``_sweep_rows``): B = M with the prior p of the layer above pushes forward
messages alpha up the chain, and B = M^T with the layer's own prior pulls
backward messages beta' = p * beta down it (beta is the probability of the
outcomes above the layer given its state): from the top layer's prior in
``posterior_pass``, where a layer's gamma is alpha * beta' / p, and from each
row's horizon in ``conditional_profiles``.  The realized backward kernels
step rows mu down a block by the pull between forward messages alpha and
d = alpha @ M: mu -> alpha * ((mu / d) @ M^T), so no S x S kernel is formed.

The forward-backward sweep of ``posterior_pass`` (the EM E-step) on a long
dense chain of small blocks goes in two levels, which cuts its sequential
Python steps from one per block and direction to about 2.5 sqrt(n) for both
directions together (about 100 for n = 1,500 blocks), in the spirit of the
temporal-parallel smoother of Sarkka & Garcia-Fernandez (IEEE TAC 2021).
Its longest run of n equal-shape blocks is cut into C = n // L segments of
L = isqrt(n // 2) blocks.  The backward recursion never reads the forward
one, and in the run both take the same step, x -> (x @ [M, M^T]) * p scaled
by its sum, so the two directions share every batched numpy step: the
segments' L-block products are built for all segments at once, the C
segment starts of both directions are swept through them together, and then
all 2C segments step through their L blocks at once.  The blocks around the
run go block by block, and at L = 1 the whole sweep does.  Scoring
(``forward_constants``) stays block by block.

Block states enumerate the support indices of a layer's nodes in row-major
order of node id within the layer (first node varies slowest); serialized
messages rely on this order.
"""

from __future__ import annotations

import bisect
import copy
import functools
import logging
import math
import string
from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution
from .errors import (
    H1Violated,
    InvalidValue,
    LayerOutOfRange,
    TooLargeForBruteForce,
)
from .kernels import EpsilonCertificate, Kernel, _table_floor
from .rr_graph import LayerStructure
from .simulator import Dataset

log = logging.getLogger(__name__)

_BRUTE_FORCE_CAP = 1_000_000
# Chains whose dense blocks hold at most this many entries in total run on
# the dense engine; larger ones run factored.
_BLOCK_CACHE_BUDGET = 4_000_000
# A one-dataset dense chain whose longest run of equal-shape blocks has at
# least _SEGMENT_MIN_RUN blocks of at most _SEGMENT_MAX_STATE states each
# sweeps that run in segments in posterior_pass (LayerChainModel.segment).
_SEGMENT_MIN_RUN = 32
_SEGMENT_MAX_STATE = 16
_SUBSCRIPTS = string.ascii_letters  # axis names of a plan's einsum subscripts


def _digits(s: int, width: int) -> np.ndarray:
    """(s**width, width) table of support indices, first position slowest."""
    out = np.empty((s**width, width), dtype=np.int32)
    for pos in range(width):
        reps = s ** (width - pos - 1)
        out[:, pos] = np.tile(np.repeat(np.arange(s), reps), s**pos)
    return out


def _placed(table: np.ndarray, a: int, b: int, ndim: int) -> np.ndarray:
    """``table[d_a, d_b]`` as an ndim-axis tensor, broadcast along the others."""
    shape = [1] * ndim
    shape[a] = shape[b] = table.shape[0]
    return (table if a < b else table.T).reshape(shape)


# A broadcast product written in C order, whatever the order of its inputs'
# strides, so the last step's output needs no copy to be laid out as a row.
_broadcast_product = functools.partial(np.multiply, order="C")


def _balanced_product(arrays: list[np.ndarray]) -> np.ndarray:
    """The broadcast product of ``arrays``, multiplied in pairs level by
    level, so that no factor is multiplied into a full-size product that a
    later one widens again."""
    while len(arrays) > 1:
        arrays = [a * b for a, b in zip(arrays[::2], arrays[1::2])] + arrays[len(arrays) & ~1 :]
    return arrays[0]


@dataclass(frozen=True)
class _ContractionPlan:
    """A tensor x contracted with fixed factors, one operand per step.

    ``steps[k] = (subscripts, fold)`` describes step k: the einsum
    subscripts of contracting the running tensor with one operand, the
    product of the factors that ``fold`` lists as (factor index, transposed,
    shape), each placed in the operand's axis order (a lone factor is the
    operand).  ``program[k] = (shape, perm, merged, op, operand shape)``
    runs it: the running tensor, viewed with axes ``shape``, is permuted by
    ``perm``, merged to ``merged`` and taken through ``op`` with the operand.
    A step that sums an axis is one ``np.matmul`` of each row's (batch,
    rows, summed) by the operand's (batch, summed, cols), and its result
    keeps that (row, batch, rows, cols) order for the next permutation to
    absorb; a step that sums none is a broadcast product written in the
    output's axis order (``_broadcast_product``).  ``final = (shape, perm)``
    lays the last result out in that order.  :meth:`operand` forms a step's
    operand in the layout the step reads, once per structure
    (``_ChainStructure._operands_of``), so a call runs only the program.
    """

    steps: tuple[tuple[str, tuple[tuple[int, bool, tuple[int, ...]], ...]], ...]
    program: tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], object, tuple[int, ...]], ...]
    final: tuple[tuple[int, ...], tuple[int, ...]]

    def operand(self, k: int, factors: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """Step k's operand for one block's factors, each given as (table, its
        transpose), both C-contiguous: the operand is then C-contiguous, and a
        lone factor a view of its table."""
        (_, fold), (*_, shape) = self.steps[k], self.program[k]
        parts = [factors[i][flip].reshape(placed) for i, flip, placed in fold]
        return parts[0] if len(parts) == 1 else _balanced_product(parts).reshape(shape)

    def loop_axes(self) -> int:
        """The most block axes that one step loops over, its row axis aside."""
        return max(len(set(sub) - {",", "-", ">", _SUBSCRIPTS[0]}) for sub, _ in self.steps)


@dataclass(frozen=True)
class _FactoredBlock:
    """Edge factors that act as their block matrix: ``x @ block`` runs the
    plan's program on (..., S) state vectors x, each row one slice of the
    running tensor's row axis, stepped by matrix products of its own."""

    plan: _ContractionPlan
    operands: tuple[np.ndarray, ...]

    __array_ufunc__ = None  # numpy then hands ``x @ block`` to __rmatmul__

    def __rmatmul__(self, x: np.ndarray) -> np.ndarray:
        out = x
        for (shape, perm, merged, op, _), operand in zip(self.plan.program, self.operands):
            out = op(out.reshape(shape).transpose(perm).reshape(merged), operand)
        shape, perm = self.plan.final
        return out.reshape(shape).transpose(perm).reshape(x.shape[:-1] + (-1,))


def _compile_plan(
    s: int, x_sub: str, out_sub: str, factor_subs: tuple[str, ...]
) -> _ContractionPlan:
    """Order the contraction ``x_sub,factor_subs... -> out_sub`` once, by
    variable elimination over the block's factor graph, and compile it.

    x_sub is the row axis, then the source layer's axes.  These are summed
    out one at a time: each step takes the axis whose result tensor is
    smallest (the first in x_sub on ties) and contracts the running tensor
    with the product of every factor not yet used that touches that axis:
    the axes both share and keep are the step's batch, the running tensor's
    others its rows, and the operand's new axes its columns.  The factors
    over target axes alone multiply in at the end, as one broadcast
    operand; the last step writes out_sub's axis order.
    """
    unused = dict(enumerate(factor_subs))
    row, running, left = x_sub[0], x_sub, list(x_sub[1:])
    steps: list[tuple[str, tuple]] = []
    program: list[tuple] = []

    def touching(axis: str) -> tuple[int, ...]:
        return tuple(k for k, sub in unused.items() if axis in sub)

    def operand(ks: tuple[int, ...]) -> str:
        return "".join(dict.fromkeys("".join(unused[k] for k in ks)))

    def sizes(axes: str) -> tuple[int, ...]:
        return tuple(-1 if c == row else s for c in axes)

    def step(axis: str, ks: tuple[int, ...], last: bool) -> str:
        both = operand(ks)
        if axis:  # per row of x: (batch, rows, axis) @ (batch, axis, cols)
            batch = "".join(c for c in running if c in both and c != axis)
            rows = "".join(c for c in running[1:] if c not in both)
            cols = "".join(c for c in both if c not in running)
            lead = (s ** len(batch),) if batch else ()
            order, sub, result = row + batch + rows + axis, batch + axis + cols, row + batch + rows + cols
            merged, shape, op = (-1, *lead, s ** len(rows), s), lead + (s, s ** len(cols)), np.matmul
        else:  # a broadcast product in out_sub's order
            order = "".join(c for c in out_sub if c in running)
            sub, result = "".join(c for c in out_sub if c in both), out_sub
            merged = tuple(-1 if c == row else s if c in running else 1 for c in out_sub)
            shape, op = tuple(s if c in both else 1 for c in out_sub), _broadcast_product
        fold = []
        for k in ks:
            at = [sub.index(c) for c in unused[k]]
            spread = tuple(s if i in at else 1 for i in range(len(sub)))
            fold.append((k, at != sorted(at), shape if len(ks) == 1 else spread))
            del unused[k]
        steps.append((f"{running},{sub}->{out_sub if last else result}", tuple(fold)))
        program.append((sizes(running), tuple(map(running.index, order)), merged, op, shape))
        return result

    while left:
        # the smallest result: the axes of the running tensor and the operand
        axis = min(left, key=lambda c: len(dict.fromkeys(running + operand(touching(c)))))
        ks = touching(axis)
        left.remove(axis)
        running = step(axis, ks, not left and len(ks) == len(unused))
    if unused:
        running = step("", tuple(unused), True)
    final = (sizes(running), tuple(map(running.index, out_sub)))
    return _ContractionPlan(tuple(steps), tuple(program), final)


@dataclass(frozen=True)
class BackwardMessages:
    """Conditional block distributions P(V_k | X_{k:m}) for k = q..m+1.

    ``log_messages[k - q]`` is the normalized log distribution over block
    states of layer k; ``log_normalizers[k - q]`` equals log P(X_{k:m}).
    """

    window: tuple[int, int]
    log_messages: tuple[np.ndarray, ...]
    log_normalizers: tuple[float, ...]


@dataclass(frozen=True)
class ContractionProfile:
    """Two block distributions of layer m pulled back to layer q, as columns
    over the realized kernels k = m-1 down to q: ``layer`` k (maps layer k+1
    -> k), ``tv`` after the step, ``step_factor`` 1 - nu_k, and
    ``cumulative_bound`` initial_tv * prod (1 - nu_i)."""

    window: tuple[int, int]
    initial_tv: float
    layer: np.ndarray
    tv: np.ndarray
    step_factor: np.ndarray
    cumulative_bound: np.ndarray


class _ChainStructure:
    """What the chain models of one (layers, kernel, support) share: all that
    the outcomes do not decide, and the table of block types built so far.

    Block q's type is ``(w_q, w_{q+1}, factors)``: one factor ``(axis of i,
    axis of j, outcome index)`` per edge (i, j), i < j, of
    ``layers.block_edges(q)``, in that order.  Axes 0..w_q-1 are the
    positions of layer q and w_q.. those of layer q+1.  ``_layout`` lays out
    every block's type as one row, (w_q, w_{q+1}, then axis, axis, outcome per
    edge, -1 past its edges), with the outcome slots open.  A filled row, as
    bytes, keys the type table: type id k has (push, pull, log shift)
    ``blocks[k]``, built once for every model on the structure.

    ``engine`` and ``max_replicates`` follow from one budget: a chain whose
    dense blocks hold T <= ``_BLOCK_CACHE_BUDGET`` entries in total runs
    dense, and a model stacks the blocks of at most
    max(1, ``_BLOCK_CACHE_BUDGET`` // T) datasets, so a factored chain holds one.
    A factored structure also keeps each outcome's edge table scaled by its
    maximum, and that maximum, for every block type's factors, the
    contraction plans compiled so far (``_plans``) and the step operands
    built so far (``_operands``).
    """

    def __init__(self, layers: LayerStructure, kernel: Kernel, support):
        self.layers = layers
        self.kernel = kernel
        self.support = np.asarray(support, dtype=float)
        self.s = self.support.size
        self.num_blocks = layers.q_max + 1
        self.log_table = kernel.log_table(self.support)
        self.floor: EpsilonCertificate = _table_floor(kernel, self.support, self.log_table)
        self.widths = [len(layer) for layer in layers.node_layers]

        per_block = [layers.block_edges(q) for q in range(self.num_blocks)]
        self.block_sizes = [len(edges) for edges in per_block]
        self._edges = [edge for edges in per_block for edge in edges]
        # Edges run block by block and nodes layer by layer: an edge's slot is
        # its index less its block's first, and a node's axis in block q is its
        # index in the layer-major node order less that of layer q's first.
        block = np.repeat(np.arange(self.num_blocks), self.block_sizes)
        slot = np.arange(block.size) - (np.cumsum(self.block_sizes) - self.block_sizes)[block]
        index = np.argsort(np.concatenate(layers.node_layers))  # of node v at v - 1
        axes = index[np.array(self._edges) - 1] - (np.cumsum(self.widths) - self.widths)[block, None]
        self._layout = np.full((self.num_blocks, 2 + 3 * max(self.block_sizes)), -1, dtype=np.int64)
        self._layout[:, :2] = np.column_stack((self.widths[:-1], self.widths[1:]))
        self._layout[block[:, None], 2 + 3 * slot[:, None] + [0, 1]] = axes
        self._outcome_slots = (block, 4 + 3 * slot)

        total_entries = sum(self.s ** (wq + wq1) for wq, wq1 in zip(self.widths, self.widths[1:]))
        if total_entries <= _BLOCK_CACHE_BUDGET:
            self.engine, self._build = "dense", self._build_dense
        else:
            self.engine, self._build = "factored", self._build_factored
            # Per outcome index, its edge table scaled by its maximum (with a
            # C-contiguous transpose), and that maximum; index -1 is the unit
            # factor of a bare layer-q node.
            self._maxima = [float(t.max()) for t in self.log_table] + [0.0]
            scaled = [np.exp(t - m) for t, m in zip(self.log_table, self._maxima)]
            self._scaled = [(t, t.T.copy()) for t in scaled] + [(np.ones(self.s),) * 2]
        # A model of R datasets stacks R dense matrices per block, so the same
        # budget bounds R; a factored chain scores one dataset per model.
        self.max_replicates = max(1, _BLOCK_CACHE_BUDGET // total_entries)
        self._plans: dict[tuple, tuple[_ContractionPlan, _ContractionPlan]] = {}
        self._operands: dict[tuple, np.ndarray] = {}
        self.blocks: list[tuple] = []
        self._type_index: dict[bytes, int] = {}
        # Per distinct layer width: its layers and their node rows (node id
        # - 1, one column per position), for the marginals of posterior_pass,
        # and its digit table, for the layer priors and the marginals.
        self._width_groups = []
        self._width_digits: dict[int, np.ndarray] = {}
        for width in dict.fromkeys(self.widths):
            qs = [q for q, w in enumerate(self.widths) if w == width]
            nodes = np.array([layers.node_layers[q] for q in qs]) - 1
            self._width_groups.append((width, qs, nodes))
            self._width_digits[width] = _digits(self.s, width)
        # The blocks of each (w_q, w_{q+1}), whose matrices stack into one array.
        shapes: dict[tuple[int, int], list[int]] = {}
        for q, shape in enumerate(zip(self.widths, self.widths[1:])):
            shapes.setdefault(shape, []).append(q)
        self._shape_groups = list(shapes.values())
        # The longest run of consecutive blocks of one shape, first on ties,
        # as (first block, length): posterior_pass may sweep it in segments.
        shape_of = list(zip(self.widths, self.widths[1:]))
        bounds = [0] + [q for q in range(1, self.num_blocks) if shape_of[q] != shape_of[q - 1]]
        first, end = max(zip(bounds, bounds[1:] + [self.num_blocks]), key=lambda b: b[1] - b[0])
        self._run = (first, end - first)

    @staticmethod
    def _type_of(row: np.ndarray) -> tuple:
        """The block type that a filled layout row describes."""
        wq, wq1, *slots = row.tolist()
        factors = zip(slots[0::3], slots[1::3], slots[2::3])
        return wq, wq1, tuple(factor for factor in factors if factor[0] >= 0)

    def type_id(self, row: np.ndarray) -> int:
        """The id of the type of filled layout row ``row``, built on first use."""
        key = row.tobytes()
        if key not in self._type_index:
            self._type_index[key] = len(self.blocks)
            self.blocks.append(self._build(self._type_of(row)))
        return self._type_index[key]

    # -- block construction -------------------------------------------------

    def _log_matrix(self, block_type: tuple) -> np.ndarray:
        """log M of one block type, (s**w_q, s**w_{q+1}).

        The cross factors' log tables are added in edge order; the within
        factors, both of whose axes lie in layer q+1, are summed into an
        upper-layer vector first, then added.
        """
        wq, wq1, factors = block_type
        s = self.s
        log_m = np.zeros((s,) * (wq + wq1))
        vec = np.zeros((s,) * wq1)
        for a, b, xi in factors:
            if min(a, b) < wq:
                log_m += _placed(self.log_table[xi], a, b, wq + wq1)
            else:
                vec += _placed(self.log_table[xi], a - wq, b - wq, wq1)
        log_m += vec
        return log_m.reshape(s**wq, s**wq1)

    def _build_dense(self, block_type: tuple) -> tuple:
        """(M, M.T, log shift) of one block type."""
        log_m = self._log_matrix(block_type)
        shift = float(log_m.max())
        mat = np.exp(log_m - shift)
        # A dense pull is an M.T view: row by row, x @ M.T is M @ x, bit for bit.
        return mat, mat.T, shift

    def _build_factored(self, block_type: tuple) -> tuple:
        """(push block, pull block, log shift) of one block type.

        Subscript 0 is the row axis and subscript 1 + a the block axis a.  A
        layer-q node without a cross edge gets the unit factor, so every
        index of either layer occurs in some factor.  Factors are sorted
        by subscripts, so types with one positional plan share its plans
        (``_compile_plan``: push eliminates layer q's axes, pull layer q+1's).
        Each factor is its outcome's edge table scaled by the table's
        maximum, built once per structure, and the shift is those maxima
        summed in factor order, so no entry of the implied block matrix
        exceeds 1.
        """
        wq, wq1, edges = block_type
        factors = {_SUBSCRIPTS[1 + a] + _SUBSCRIPTS[1 + b]: xi for a, b, xi in edges}
        for c in _SUBSCRIPTS[1 : 1 + wq]:
            if not any(c in sub for sub in factors):
                factors[c] = -1
        subs = tuple(sorted(factors))
        key = (wq, wq1, subs)
        if key not in self._plans:
            lower = _SUBSCRIPTS[: 1 + wq]
            upper = _SUBSCRIPTS[0] + _SUBSCRIPTS[1 + wq : 1 + wq + wq1]
            self._plans[key] = (
                _compile_plan(self.s, lower, upper, subs),
                _compile_plan(self.s, upper, lower, subs),
            )
        push, pull = self._plans[key]
        ids = [factors[sub] for sub in subs]
        return (
            _FactoredBlock(push, self._operands_of(push, ids)),
            _FactoredBlock(pull, self._operands_of(pull, ids)),
            sum(self._maxima[xi] for xi in ids),
        )

    def _operands_of(self, plan: _ContractionPlan, ids: list[int]) -> tuple[np.ndarray, ...]:
        """``plan``'s operands for factors of outcome indices ``ids``.  Step
        k's depends only on the indices of the factors it folds, so it is
        built once per structure and shared by every block type with them
        (``_operands``, keyed by the plan's identity, which ``_plans`` keeps)."""
        operands = []
        for k, (_, fold) in enumerate(plan.steps):
            key = (id(plan), k, *[ids[i] for i, _, _ in fold])
            if key not in self._operands:
                self._operands[key] = plan.operand(k, [self._scaled[xi] for xi in ids])
            operands.append(self._operands[key])
        return tuple(operands)


class LayerChainModel(_ChainStructure):
    """Chain representation of a (dataset, kernel, support) triple: the
    ``_ChainStructure`` of (dataset.layers, kernel, support) plus the type id
    of each block under the dataset's outcomes.  Models of datasets on one
    layer structure, such as replicates, can share one ``structure`` and its
    type table; without one, a model lays out its own.  A dataset whose
    layers are not the structure's raises ``InvalidValue``.

    ``dataset`` may also be a list of R datasets on one layer structure, up
    to ``max_replicates`` of them: the model then holds block q of every
    dataset as one (R, 1, S, S') stack, and ``forward_constants``,
    ``log_likelihood`` and ``conditional_profiles`` sweep all R in lockstep,
    with a leading R axis on their outputs, each value bit-identical to a
    model of that dataset alone.  The methods that read one dataset's block
    matrices (``posterior_pass``, ``backward_messages``, ``backward_kernels``,
    ``contraction_profile``) refuse R > 1 with ``InvalidValue``.
    ``replicates`` is R, and ``dataset`` the first (or only) dataset.

    Blocks depend on the kernel and the support grid but not on the simplex
    weights, so a model can be reused across candidate distributions (EM
    iterations, grid scans) on a fixed support.  ``engine`` says how blocks
    are stored ("dense" or "factored", see the module docstring).  Sweeps
    push with ``x @ _mats[q]`` and pull with ``x @ _pulls[q]``, the
    transposed block, both gathered from the structure's type table, so no
    sweep asks which.  Both engines give the same per-block log normalizers
    up to float64 roundoff.

    ``floor`` is the kernel's H1 floor epsilon on the support grid (a model
    without one raises ``H1Violated``), and :meth:`block_nus` gives each
    block's Doeblin coefficient from it, for the mixing envelopes.

    ``forward_constants``, ``posterior_pass`` and ``conditional_profiles``
    sweep K rows of simplex weights with one step (``_sweep_rows``, given its
    blocks and priors in push or pull order), each row stepped as its own
    vector-matrix product against the shared block matrices, so every row's
    result is bit-identical to a sweep of that row alone.  The model picks
    the sweep shape from the row count: on a one-dataset model a batch of one
    row, (s,) or (1, s), sweeps as a plain vector, and outputs keep the shape
    of the input.  The per-block loops do the recursion alone; logs, shifts,
    gammas and node marginals follow for all blocks at once, in the
    floating-point order of a per-block computation.

    ``segment`` is the segment length L of ``posterior_pass``'s sweep (see
    the module docstring), picked from what the chain shows: L =
    isqrt(n // 2) for a one-dataset dense model whose longest equal-shape
    run has n >= ``_SEGMENT_MIN_RUN`` blocks of at most
    ``_SEGMENT_MAX_STATE`` states, else 1, block by block.  The run's
    stacked blocks are gathered on the first segmented sweep.

    The sweeps are pure and safe for concurrent reads (a first segmented
    sweep stores the same stack whichever thread gathers it); building a
    model on a shared structure grows its type table, so models of one
    structure are built in one thread.
    """

    def __init__(
        self,
        dataset: Dataset | list[Dataset],
        kernel: Kernel,
        support,
        structure: _ChainStructure | None = None,
    ):
        datasets = [dataset] if isinstance(dataset, Dataset) else list(dataset)
        if structure is None:
            super().__init__(datasets[0].layers, kernel, support)
        else:
            # The structure's layout, and its type table by reference.
            vars(self).update(vars(structure))
        for ds in datasets:
            if ds.layers is not self.layers and ds.layers != self.layers:
                raise InvalidValue(
                    f"a dataset on the N={ds.graph.N}, n={ds.graph.n} schedule does not fit "
                    f"a chain structure of N={self.layers.N}, n={self.layers.n}"
                )
        if not 1 <= len(datasets) <= self.max_replicates:
            raise InvalidValue(
                f"a {self.engine} chain model takes 1 to {self.max_replicates} datasets, "
                f"got {len(datasets)}"
            )
        self.replicates = len(datasets)
        self.dataset = datasets[0]
        rows = np.repeat(self._layout[None], self.replicates, axis=0)
        # first index of a repeated outcome, as Kernel.outcome_index gives it
        index = {x: i for i, x in reversed(list(enumerate(self.kernel.outcomes)))}
        try:
            ids = [[index[x] for x in map(ds.outcomes.__getitem__, self._edges)] for ds in datasets]
        except (KeyError, TypeError):
            # A foreign or unhashable outcome: outcome_index names the first.
            outcome_index = self.kernel.outcome_index
            ids = [[outcome_index(ds.outcomes[e]) for e in self._edges] for ds in datasets]
        rows[(slice(None),) + self._outcome_slots] = ids
        distinct = self._use(rows)
        first, length = self._run
        self.segment = 1
        if (
            self.replicates == 1
            and self.engine == "dense"
            and length >= _SEGMENT_MIN_RUN
            and self.s ** self.widths[first] <= _SEGMENT_MAX_STATE
        ):
            self.segment = math.isqrt(length // 2)
        plans = ""
        if self.engine == "factored":
            compiled = [plan for pair in self._plans.values() for plan in pair]
            steps = max(plan.loop_axes() for plan in compiled)
            plans = f" plans={len(compiled)} max_step={self.s**steps}"
        log.debug(
            "layer chain model: engine=%s blocks=%d replicates=%d distinct=%d max_state=%d%s "
            "segment=%d",
            self.engine,
            self.num_blocks,
            self.replicates,
            distinct,
            self.s ** max(self.widths),
            plans,
            self.segment,
        )

    def _use(self, rows: np.ndarray) -> int:
        """Point each block q of replicate r at the type of filled layout row
        ``rows[r, q]``, and return the number of distinct types.  The rows,
        viewed as one byte string each, go through one ``np.unique``, which no
        block size can overflow; only the distinct ones are looked up.

        One replicate keeps each block's push and pull as the type table holds
        them.  R > 1 replicates (dense only) stack block q's R matrices into
        one (R, 1, S, S') push, gathered per (w_q, w_{q+1}) from the distinct
        types of that shape, and pull with its ``swapaxes`` view."""
        self._segment_stack = None  # the run's blocks, gathered on first use
        flat = rows.reshape(-1, rows.shape[-1])
        codes = flat.view(np.dtype((np.void, flat.shape[1] * flat.itemsize))).ravel()
        # With return_inverse, np.unique does not import numpy.ma (numpy >= 2).
        _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        kinds = [self.type_id(flat[q]) for q in first.tolist()]
        local = inverse.reshape(rows.shape[:-1])
        self._type_ids = np.array(kinds)[local]
        if self.replicates == 1:
            self._filled, self._type_ids = rows[0], self._type_ids[0]
            self._mats, self._pulls, shifts = zip(*[self.blocks[k] for k in self._type_ids.tolist()])
            self._shifts = np.array(shifts)
            return first.size
        self._filled = rows
        self._shifts = np.array([self.blocks[k][2] for k in kinds])[local]
        mats = [self.blocks[k][0] for k in kinds]
        self._mats = [None] * self.num_blocks
        for qs in self._shape_groups:
            present, at = np.unique(local[:, qs], return_inverse=True)
            table = np.stack([mats[k] for k in present.tolist()])
            for q, stack in zip(qs, table[at.reshape(-1, len(qs)).T]):
                self._mats[q] = stack[:, None]
        self._pulls = [mat.swapaxes(-1, -2) for mat in self._mats]
        return first.size

    def _single(self, method: str) -> None:
        """Refuse ``method`` on a model of R > 1 datasets: it reads one
        dataset's block matrices, which such a model does not hold."""
        if self.replicates > 1:
            raise InvalidValue(f"{method} needs a one-dataset model, not one of {self.replicates}")

    def _flipped(self, q: int, edge: int, outcome: int) -> LayerChainModel:
        """A copy of this model whose edge ``edge`` of block q (its place in
        ``layers.block_edges(q)``) has outcome index ``outcome``: only block
        q's type id changes.  Its ``dataset`` is still the unflipped one."""
        self._single("_flipped")
        rows = self._filled.copy()
        rows[q, 4 + 3 * edge] = outcome  # the edge's outcome slot in _layout
        twin = copy.copy(self)
        twin._use(rows[None])
        return twin

    def block_nus(self) -> list[float]:
        """The Doeblin coefficient nu_k = epsilon**|X_k| of every block k."""
        return [self.floor.nu(size) for size in self.block_sizes]

    def _block_log_matrix(self, q: int) -> np.ndarray:
        return self._log_matrix(self._type_of(self._filled[q]))

    # -- priors ---------------------------------------------------------------

    def _prior(self, probs: np.ndarray, q: int) -> np.ndarray:
        """The block prior of layer q along the last axis of ``probs``."""
        width = self.widths[q]
        if width == 1:
            return probs
        return probs[..., self._width_digits[width]].prod(axis=-1)

    def _simplex(self, probs, rows: bool = True) -> np.ndarray:
        """``probs`` as floats of shape (s,), or (K, s) where ``rows``; any
        other shape raises ``InvalidValue``."""
        probs = np.asarray(probs, dtype=float)
        if probs.ndim not in ((1, 2) if rows else (1,)) or probs.shape[-1] != self.s:
            need = f"({self.s},) or (K, {self.s})" if rows else f"({self.s},)"
            raise InvalidValue(
                f"simplex weights of shape {probs.shape} do not fit the "
                f"{self.s}-point support; need shape {need}"
            )
        return probs

    def _rows(self, probs: np.ndarray) -> np.ndarray:
        """Simplex rows as a sweep takes them: K rows (K, s) as (K, 1, s), but
        one row, (s,) or (1, s), of a one-dataset model as a plain (s,) vector."""
        if self.replicates == 1 and probs.size == self.s:
            return probs.reshape(-1)
        return probs.reshape(-1, 1, self.s)

    def _priors(self, probs: np.ndarray) -> list[np.ndarray]:
        """``_prior(probs, q)`` for every layer q, built once per distinct width.

        ``probs`` holds the weights along its last axis; leading axes carry
        over.  Layers of one width share one C-contiguous array (a batched
        row then sweeps as it would alone), so sweeps must not write into a
        prior in place.
        """
        by_width = {w: np.ascontiguousarray(self._prior(probs, qs[0])) for w, qs, _ in self._width_groups}
        return list(map(by_width.__getitem__, self.widths))

    # -- forward / backward sweeps ---------------------------------------------

    def log_likelihood(self, probs):
        """Log-likelihood of simplex ``probs``: a float for shape (s,), one
        value per row for shape (K, s)."""
        return self.forward_constants(probs)[0]

    def _run_blocks(self) -> np.ndarray:
        """(L, 2, C, S, S) block matrices of the segmented run, stepped by
        both directions: [i, 0, j] is that of block first + j L + i, and
        [i, 1, j] the transpose of block first + j L + L - 1 - i.  Gathered
        from the type table by ``_type_ids`` on first use, and dropped when
        ``_use`` repoints the blocks."""
        if self._segment_stack is None:
            first, length = self._run
            count = length // self.segment
            ids = self._type_ids[first : first + count * self.segment].reshape(count, -1).T
            kinds, at = np.unique(ids, return_inverse=True)
            table = np.stack([self.blocks[k][0] for k in kinds.tolist()])
            blocks = table[at.reshape(ids.shape)]
            self._segment_stack = np.stack((blocks, blocks[::-1].swapaxes(-1, -2)), axis=1)
        return self._segment_stack

    def _sweep_rows(self, x: np.ndarray, steps) -> tuple[list, np.ndarray]:
        """The scaled recursion of K rows on each of the model's R datasets
        through ``steps``, (block, prior) pairs in sweep order: x -> (x @ block)
        * prior divided by its sum.  A push ``(_mats[q], priors[q + 1])`` goes
        up the chain and a pull ``(_pulls[q], priors[q])`` down it.  Returns
        (x and each step's message, the step sums shaped (len(steps),) +
        shape[:-1] of the last message).

        Rows are (K, 1, S), or (S,) for one row of one dataset, and past the
        first message (R, K, 1, S) when R > 1.  Each row is a (1, S) matrix
        stepped on its own against its dataset's block, which keeps it
        bit-identical to a sweep of that row alone (a (K, S) matrix product is
        not).  A row that loses its mass turns to NaN in the division and stays
        NaN; callers check the sums with :meth:`_raise_lost`.
        """
        total = np.add.reduce
        # One row divides by a scalar, which is faster than by a (1, 1) array.
        rows = x.ndim > 1
        messages, cs = [x], []
        with np.errstate(divide="ignore", invalid="ignore"):
            for block, prior in steps:
                x = (x @ block) * prior
                c = total(x, -1, keepdims=rows)
                x /= c
                cs.append(c)
                messages.append(x)
        return messages, np.reshape(cs, (len(cs),) + x.shape[:-1])

    def _raise_lost(self, sums: np.ndarray, blocks, what: str) -> None:
        """Raise ``H1Violated`` if a dataset lost its ``what`` mass: ``sums``
        holds a sweep's step sums along its first axis, in the order of
        ``blocks``, then the dataset axis when R > 1.  The message names the
        first lost block of the first dataset that lost any, as its own sweep
        would."""
        lost = ~(sums > 0.0).all(axis=tuple(range(1 if self.replicates == 1 else 2, sums.ndim)))
        if lost.any():
            lost = lost.reshape(len(blocks), -1)
            r = int(np.argmax(lost.any(axis=0)))
            raise H1Violated(f"zero {what} mass at block {blocks[int(np.argmax(lost[:, r]))]}")

    def forward_constants(self, probs) -> tuple:
        """(log-likelihood, per-block log normalizers) for simplex ``probs``.

        ``probs`` of shape (s,) gives a float and a (num_blocks,) array;
        shape (K, s) gives (K,) log-likelihoods and (K, num_blocks) normalizers
        from one push up the chain over all rows (``_sweep_rows``), each row
        bit-identical to a sweep of that row alone.  A model of R > 1 datasets
        puts a leading R axis on both.  The log-likelihood sums the
        normalizers sequentially in block order.
        """
        probs = self._simplex(probs)
        priors = self._priors(self._rows(probs))
        _, cs = self._sweep_rows(priors[0], zip(self._mats, priors[1:]))
        self._raise_lost(cs, range(self.num_blocks), "likelihood")
        constants = np.log(cs.reshape(self.num_blocks, self.replicates, -1))
        constants += self._shifts.T.reshape(self.num_blocks, -1, 1)
        totals, constants = np.cumsum(constants, axis=0)[-1], np.moveaxis(constants, 0, -1)
        if probs.ndim == 1:
            totals, constants = totals[:, 0], constants[:, 0]
        if self.replicates == 1:
            return totals[0], constants[0]
        return totals, constants

    def posterior_pass(self, probs) -> tuple:
        """(node marginals, log-likelihood) from one forward-backward sweep.

        ``probs`` of shape (s,) gives (N, s) marginals and a float; shape
        (K, s) gives (K, N, s) marginals and (K,) log-likelihoods from one
        sweep over all rows.  Each row stays a (1, S) row both ways, pushed
        and pulled on its own against the shared block matrices, so every
        row is bit-identical to a sweep of that row alone.  Alphas and
        betas' are scaled by their sum.

        A model with ``segment`` L > 1 sweeps its longest run in segments of
        L blocks (``_run_sweep``); its log-likelihood then agrees with
        ``log_likelihood`` within about 1e-13 relative, not bit for bit.  If
        a segment sweep loses mass anywhere, the rows that lose it rerun at
        L = 1, so a failure raises what that sweep raises: ``H1Violated``
        naming the block or layer where the mass underflows to zero or is not
        finite, the first place in sweep order (forward blocks upward,
        backward blocks downward, then layers) where any row fails, with the
        message of that row's own sweep.
        """
        self._single("posterior_pass")
        probs = self._simplex(probs)
        if self.segment == 1 or not probs.size:
            return self._posterior(probs, 1)
        try:
            return self._posterior(probs, self.segment)
        except H1Violated:
            if probs.size == self.s:
                return self._posterior(probs, 1)
        # Rows are independent, so a row that keeps its mass alone keeps its
        # segment sweep; the others rerun at L = 1 as one batch.
        marginals = np.empty((len(probs), self.dataset.graph.N, self.s))
        totals = np.empty(len(probs))
        lost = []
        for k, row in enumerate(probs):
            try:
                marginals[k], totals[k] = self._posterior(row, self.segment)
            except H1Violated:
                lost.append(k)
        if lost:
            marginals[lost], totals[lost] = self._posterior(probs[lost], 1)
        return marginals, totals

    def _posterior(self, probs: np.ndarray, segment: int) -> tuple:
        """``posterior_pass`` of simplex rows ``probs`` at segment length ``segment``."""
        marginals, totals = self._run_sweep(self._priors(self._rows(probs)), probs.shape[:-1], segment)
        return marginals, totals if probs.ndim > 1 else totals[0]

    def _run_sweep(self, priors: list, lead: tuple, segment: int) -> tuple:
        """(marginals, (K,) log-likelihoods) of one dataset's K rows: its run of
        n blocks in C = n // L segments of L = ``segment``, or no run at L = 1,
        and the blocks around it one by one, pushed up from layer 0 and pulled
        down from the top layer's prior.  Every block, in the run too, is one
        ``_sweep_rows`` step, x -> (x @ B) * p scaled by its sum (B a block
        for alpha and a transposed block for beta').  All segment products
        T_j = M diag(p) M ... diag(p) M (p the run's layer prior) are built at
        once, each partial product scaled to peak 1; the C segment starts of
        both directions go through [T_i, T_(C-1-i)^T], one stacked ``@`` per
        segment; then all 2C segments step through their L blocks at once, in
        one ``_sweep_rows`` call.  A layer's gamma is alpha * beta' / p, with
        1/p formed once per layer width (0 where p is 0).  Raises
        ``H1Violated`` if a partial product has an entry below the smallest
        normal float (its segment would lose mass or precision that the
        block-by-block sweep keeps), or where a row loses mass: at the first
        forward block, else the highest pulled block, else a layer."""
        first, length = self._run if segment > 1 else (0, 0)
        L, p = segment, priors[first]
        C, S, end = length // L, p.shape[-1], first + length // L * L
        K, row = (len(p), p.shape) if p.ndim > 1 else (1, (1, S))
        alphas, head_cs = self._sweep_rows(priors[0], zip(self._mats[:first], priors[1:]))
        self._raise_lost(head_cs, range(first), "likelihood")
        # Pulls run down the chain, their messages in sweep order: tail_betas[-1] is layer end.
        tail = range(self.num_blocks - 1, end - 1, -1)
        tail_betas, tail_sums = self._sweep_rows(priors[-1], [(self._pulls[q], priors[q]) for q in tail])
        alpha, beta, cs = alphas[-1], tail_betas[-1], [head_cs]
        if C:
            blocks = self._run_blocks() if p.ndim == 1 else self._run_blocks()[:, :, :, None]
            total, lows = np.add.reduce, []

            def times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
                out = (a * p) @ b
                out /= np.maximum.reduce(out, axis=(-2, -1), keepdims=True)
                lows.append(np.minimum.reduce(out, axis=None))
                return out

            with np.errstate(divide="ignore", invalid="ignore"):
                # T_j = left diag(p) right: left from its first L - L // 2 blocks,
                # right^T from its last L // 2 transposed, both built at once.
                half = blocks[0]
                for mat in blocks[1 : L // 2]:
                    half = times(half, mat)
                left, right = half
                product = times(times(left, blocks[L // 2, 0]) if L % 2 else left, right.swapaxes(-1, -2))
                if not np.min(lows) >= np.finfo(float).smallest_normal:
                    raise H1Violated("segment product underflows")
                # Each T_j is one row's, so p folds into it.
                pairs = np.stack((product, product[::-1].swapaxes(-1, -2)), axis=1) * p
                starts = np.empty((C, 2) + row)
                starts[0, 0], starts[0, 1] = alpha, beta
                for i in range(C - 1):
                    x = np.matmul(starts[i], pairs[i], out=starts[i + 1])
                    x /= total(x, -1, keepdims=True)
            # steps[m, 0, j] is alpha of layer first + j L + m, and
            # steps[m, 1, j] beta' of layer first + j L + L - m.
            steps, norms = self._sweep_rows(np.stack((starts[:, 0], starts[::-1, 1])), zip(blocks, [p] * L))
            steps = np.stack(steps)
            alpha, beta = steps[L, 0, -1].reshape(p.shape), steps[L, 1, 0].reshape(p.shape)
            # alphas and betas' of layers first to end - 1, laid out as ``stack`` joins layers
            run = [x.swapaxes(0, 1).reshape((-1,) + p.shape[1:]) for x in (steps[:L, 0], steps[L:0:-1, 1])]
            cs.append(norms[:, 0].swapaxes(0, 1).reshape(C * L, K))
        tail_alphas, tail_cs = self._sweep_rows(alpha, zip(self._mats[end:], priors[end + 1 :]))
        self._raise_lost(tail_cs, range(end, self.num_blocks), "likelihood")
        head = range(first - 1, -1, -1)
        head_betas, head_sums = self._sweep_rows(beta, [(self._pulls[q], priors[q]) for q in head])
        self._raise_lost(np.concatenate((tail_sums, head_sums)), [*tail, *head], "posterior")
        gap = [None] * (end - first)  # the run's layers, stacked in ``run``
        # head_betas[:0:-1] holds layers 0..first-1, tail_betas[::-1] end..top.
        alphas, betas = alphas[:-1] + gap + tail_alphas, head_betas[:0:-1] + gap + tail_betas[::-1]

        def gammas(qs: list[int]) -> np.ndarray:
            # qs is sorted, so its run layers are qs[a:b]: the whole run or none.
            a, b = bisect.bisect_left(qs, first), bisect.bisect_left(qs, end)
            p = priors[qs[0]]
            size = p.shape[-1]

            def stack(messages: list, i: int) -> np.ndarray:
                parts = [messages[q] for q in qs[:a]] + ([run[i]] if b > a else [])
                parts += [messages[q] for q in qs[b:]]
                return np.concatenate(parts).reshape(len(qs), K, size)

            inverse = np.divide(1.0, p, out=np.zeros_like(p), where=p > 0.0).reshape(-1, size)
            return np.ascontiguousarray((stack(alphas, 0) * stack(betas, 1) * inverse).transpose(1, 0, 2))

        marginals = self._marginals(gammas, lead)  # raises where a row lost mass
        cs = np.concatenate([c.reshape(len(c), K) for c in cs + [tail_cs]])
        return marginals, np.cumsum(np.log(cs) + self._shifts[:, None], axis=0)[-1]

    def _marginals(self, gammas, lead: tuple) -> np.ndarray:
        """``lead`` + (N, s) node marginals from the gammas alpha_q * beta'_q /
        p_q of every layer q: ``gammas(qs)`` gives those of the layers qs of
        one width as (K, len(qs), S) rows, which this normalizes in place.

        Per distinct layer width, one ``bincount`` per position sums each
        row's layers into their nodes' bins, each bin in state order, so a
        row's marginals do not depend on the other rows.  Raises
        ``H1Violated`` at the first layer, per width and then per row, whose
        gamma sum is zero or not finite.
        """
        s, N = self.s, self.dataset.graph.N
        out = np.empty(lead + (N, s))
        for width, qs, nodes in self._width_groups:
            gamma = gammas(qs)
            sums = gamma.sum(axis=-1)
            bad = ~(np.isfinite(sums) & (sums > 0.0))
            if bad.any():
                first = bad[int(np.argmax(bad.any(axis=1)))]
                raise H1Violated(f"zero posterior mass at layer {qs[int(np.argmax(first))]}")
            gamma /= sums[..., None]
            bins = np.arange(sums.size)[:, None] * s
            digits = self._width_digits[width]
            for pos in range(width):
                out.reshape(-1, N, s)[:, nodes[:, pos]] = np.bincount(
                    (bins + digits[:, pos]).ravel(), weights=gamma.ravel(), minlength=bins.size * s
                ).reshape(len(gamma), len(qs), s)
        return out

    def conditional_profiles(self, probs, horizons) -> np.ndarray:
        """(K, q_max): log P(X_q | X_{q+1:m_r}) at columns 2 <= q <= m_r, else NaN.
        Row r has horizon m_r = ``horizons[r]`` (or the one given) and
        ``probs`` or ``probs[r]``.  A model of R > 1 datasets gives (R, K, q_max).
        A horizon that is not an integer raises ``InvalidValue``.

        One sweep from max(horizons) down to block 2: row r joins at its
        horizon with its layer-(m_r + 1) prior, and one ``_sweep_rows`` pulls
        the rows joined so far down to the next horizon, each row alone and
        bit-identical to its own sweep.  ``H1Violated`` names the first block
        in sweep order at which a row of the first dataset to lose mass lost it."""
        probs = self._simplex(probs)
        given = np.array(horizons, ndmin=1)
        if given.size and given.dtype.kind not in "iu":
            raise InvalidValue(f"horizons must be integers, got {given.tolist()}")
        horizons = np.zeros(probs.shape[:-1], dtype=int) + given.astype(int)
        # a set, not np.unique: numpy >= 2 imports numpy.ma on that call
        joins = sorted(set(horizons.tolist()), reverse=True)
        for m in reversed(joins):
            self._check_window(2, m)
        order = np.argsort(-horizons, kind="stable")
        horizons = horizons[order]
        lead = () if self.replicates == 1 else (self.replicates,)
        priors = self._priors(np.broadcast_to(probs, lead + (order.size, self.s))[..., order, None, :])
        blocks = range(int(horizons.max(initial=1)), 1, -1)
        joined = horizons >= np.array(blocks, dtype=int)[:, None]  # (block, row)
        counts = joined.sum(axis=1).tolist()
        sums, n = np.ones((len(blocks), self.replicates, order.size)), 0
        for k, below in zip(joins, joins[1:] + [1]):
            # Rows join at their horizon k and are pulled down to the next.
            start, n = n, counts[blocks.start - k]
            joining = priors[k + 1][..., start:n, :, :]
            x = np.concatenate((x, joining), axis=-3) if start else joining
            steps = [(self._pulls[q], priors[q][..., :n, :, :]) for q in range(k, below, -1)]
            pulled, cs = self._sweep_rows(x, steps)
            sums[blocks.start - k : blocks.start - below, :, :n] = cs.reshape(k - below, self.replicates, n)
            x = pulled[-1]
        self._raise_lost(sums, blocks, "conditional")
        terms = np.log(sums) + self._shifts.T[list(blocks)].reshape(len(blocks), self.replicates, 1)
        # Each row's sum starts at its horizon, from 0.0, as its own sweep's does.
        log_z = np.cumsum(np.where(joined[:, None], terms, 0.0), axis=0)
        z = np.full(lead + (order.size, self.layers.q_max + 1), np.nan)
        log_z = np.where(joined[:, None], log_z, np.nan)  # (block, R, row)
        z[..., order[:, None], list(blocks)] = np.moveaxis(log_z, 0, -1).reshape(lead + joined.T.shape)
        z[..., order, horizons + 1] = 0.0
        return z[..., :-1] - z[..., 1:]

    def backward_messages(self, probs, q: int, m: int) -> BackwardMessages:
        """Messages P(V_k | X_{k:m}) and log P(X_{k:m}) for k = q..m+1, pulled
        down from the layer-(m + 1) prior by ``_sweep_rows``."""
        self._single("backward_messages")
        self._check_window(q, m)
        priors = self._priors(self._simplex(probs, rows=False))
        blocks = range(m, q - 1, -1)
        messages, cs = self._sweep_rows(priors[m + 1], [(self._pulls[k], priors[k]) for k in blocks])
        self._raise_lost(cs, blocks, "conditional")
        log_z = np.cumsum(np.log(cs) + self._shifts[q : m + 1][::-1])
        with np.errstate(divide="ignore"):
            messages = tuple(map(np.log, messages[::-1]))
        return BackwardMessages((q, m), messages, tuple(log_z[::-1]) + (0.0,))

    def _check_window(self, q: int, m: int) -> None:
        if not 2 <= q <= m <= self.layers.q_max - 1:
            raise LayerOutOfRange(
                f"window must satisfy 2 <= q <= m <= q_max-1 = "
                f"{self.layers.q_max - 1}, got q={q}, m={m}"
            )

    # -- realized backward kernels and their contraction -------------------------

    def _realized(self, probs, q: int, m: int) -> list[tuple]:
        """(k, alpha_k, d_k) for k = q..m-1: alpha_k is layer k's forward message
        pushed up from layer q's prior (``_sweep_rows``) and d_k = alpha_k @
        M_k; R_k[w, a] = alpha_k[a] M_k[a, w] / d_k[w].  ``H1Violated`` names
        the first block where the forward sweep loses mass, else the first
        whose d_k is not all positive (NaN included)."""
        self._check_window(q, m)
        priors = self._priors(self._simplex(probs, rows=False))
        alphas, cs = self._sweep_rows(priors[q], zip(self._mats[q : m - 1], priors[q + 1 :]))
        self._raise_lost(cs, range(q, m - 1), "likelihood")
        ds = [alpha @ self._mats[k] for k, alpha in zip(range(q, m), alphas)]
        self._raise_lost(np.array(ds), range(q, m), "likelihood")
        return list(zip(range(q, m), alphas, ds))

    @staticmethod
    def _raise_not_finite(finite, blocks) -> None:
        """Raise ``H1Violated`` naming the first of ``blocks``, in step order,
        whose realized-kernel step left rows that are not finite (``finite``
        false): d = alpha @ M was positive but so small that mu / d overflowed."""
        if not np.all(finite):
            raise H1Violated(f"realized kernel not finite at block {blocks[int(np.argmin(finite))]}")

    def backward_kernels(self, probs, q: int, m: int) -> list[np.ndarray]:
        """Row-stochastic matrices R_k mapping layer k+1 states to layer k states.

        R_k[w, a] = P(V_k = a | V_{k+1} = w, X_{q:k}), for k = q..m-1, i.e. the
        realized one-step kernels of the latent chain run backward under the
        conditioning window starting at q: the identity's rows stepped back
        as in ``_realized``.  Only tests read them; ``contraction_profile``
        steps its two rows without forming any.  ``H1Violated`` names the
        first block whose kernel is not finite.
        """
        self._single("backward_kernels")
        realized = self._realized(probs, q, m)
        with np.errstate(over="ignore", invalid="ignore"):
            kernels = [alpha * ((np.eye(d.size) / d) @ self._pulls[k]) for k, alpha, d in realized]
        self._raise_not_finite([np.isfinite(kernel).all() for kernel in kernels], range(q, m))
        return kernels

    def contraction_profile(self, probs, q: int, m: int) -> ContractionProfile:
        """Propagate two block distributions of layer m backward to layer q:
        the point masses on its first and last block states, as one (2, S)
        array, one pull per realized kernel (``_realized``): no S x S array.

        Records, in step order, the total-variation distance (full-sum
        convention, range [0, 2]) after each realized kernel application, the
        per-step Doeblin factor 1 - nu_k (:meth:`block_nus`), and the
        cumulative envelope initial_tv * prod(1 - nu_i).  ``H1Violated``
        names the first block, in step order, whose distance is not finite.
        """
        self._single("contraction_profile")
        mu = np.zeros((2, self.s ** self.widths[m]))
        mu[0, 0] = mu[1, -1] = 1.0
        initial_tv = float(np.abs(mu[0] - mu[1]).sum())
        tv = []
        with np.errstate(over="ignore", invalid="ignore"):
            for k, alpha, d in reversed(self._realized(probs, q, m)):
                mu = alpha * ((mu / d) @ self._pulls[k])
                tv.append(np.abs(mu[0] - mu[1]).sum())
        layers = np.arange(m - 1, q - 1, -1)
        self._raise_not_finite(np.isfinite(tv), layers)
        factors = 1.0 - np.array(self.block_nus())[layers]
        bound = np.cumprod([initial_tv, *factors])[1:]
        return ContractionProfile((q, m), initial_tv, layers, np.array(tv), factors, bound)


# -- module-level operations ------------------------------------------------------


def _support_groups(dists) -> list[list[int]]:
    """Indices of ``dists`` grouped by support, in order of first appearance."""
    groups: dict[tuple, list[int]] = {}
    for k, d in enumerate(dists):
        groups.setdefault(tuple(d.support), []).append(k)
    return list(groups.values())


def _log_likelihoods(datasets: list[Dataset], kernel: Kernel, dists, score) -> np.ndarray:
    """(len(dists), len(datasets)) array of ``score(model, rows)``, which
    gives one value per row and dataset, such as
    ``LayerChainModel.log_likelihood``.

    Distributions on a common support are scored together, as the (K, s)
    rows of one structure per support: the datasets must share their
    layers, as replicates do.  The datasets are scored in lockstep, in
    chunks of ``structure.max_replicates`` per model, each chunk one forward
    sweep; every value is bit-identical to a model of its dataset alone.  One
    structure and one model are alive at a time.
    """
    out = np.empty((len(dists), len(datasets)))
    for indices in _support_groups(dists):
        support = dists[indices[0]].support
        rows = np.array([dists[k].probs for k in indices])
        structure = _ChainStructure(datasets[0].layers, kernel, support)
        for start in range(0, len(datasets), structure.max_replicates):
            chunk = datasets[start : start + structure.max_replicates]
            values = score(LayerChainModel(chunk, kernel, support, structure), rows)
            out[indices, start : start + len(chunk)] = np.reshape(values, (len(chunk), -1)).T
    return out


def log_likelihood(dataset: Dataset, pi: DiscreteDistribution, kernel: Kernel) -> float:
    """Exact log of the outcome likelihood, all weight assignments marginalized."""
    return LayerChainModel(dataset, kernel, pi.support).log_likelihood(pi.probs)


def brute_force_log_likelihood(
    dataset: Dataset, pi: DiscreteDistribution, kernel: Kernel
) -> float:
    """Enumeration oracle: direct sum over all support**N assignments."""
    return _log_sum_exp(_brute_force_assignment_logliks(dataset, pi, kernel))


def _log_sum_exp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a non-empty 1-D array, shifted by its maximum m
    (Blanchard, Higham & Higham 2021): the terms equal to m are counted, not
    summed, and the result is log1p(rest / count) + log(count) + m, added in
    that order, with rest the sum of exp(a - m) over the other terms.  A
    non-finite m is returned as is (all terms -inf gives -inf, not NaN)."""
    top = a.max()
    if not np.isfinite(top):
        return float(top)
    at_top = a == top
    count = np.count_nonzero(at_top)
    rest = np.exp(np.where(at_top, -np.inf, a) - top).sum() / count
    return float(np.log1p(rest) + np.log(count) + top)


def brute_force_node_marginals(
    dataset: Dataset, pi: DiscreteDistribution, kernel: Kernel
) -> np.ndarray:
    """Enumeration oracle for the per-node posteriors, (N, s)."""
    ll = _brute_force_assignment_logliks(dataset, pi, kernel)
    w = np.exp(ll - ll.max())
    w /= w.sum()
    N = dataset.graph.N
    digits = _digits(pi.size, N)
    out = np.empty((N, pi.size))
    for node in range(1, N + 1):
        out[node - 1] = np.bincount(digits[:, node - 1], weights=w, minlength=pi.size)
    return out


def _brute_force_assignment_logliks(dataset, pi, kernel) -> np.ndarray:
    s = pi.size
    N = dataset.graph.N
    if s**N > _BRUTE_FORCE_CAP:
        raise TooLargeForBruteForce(
            f"support^N = {s}^{N} exceeds the {_BRUTE_FORCE_CAP} assignment cap"
        )
    table = kernel.log_table(pi.support)
    _table_floor(kernel, pi.support, table)
    digits = _digits(s, N)
    with np.errstate(divide="ignore"):
        log_probs = np.log(pi.probs)
    ll = log_probs[digits].sum(axis=1)
    for (i, j), x in dataset.outcomes.items():
        xi = kernel.outcome_index(x)
        ll = ll + table[xi].ravel()[digits[:, i - 1] * s + digits[:, j - 1]]
    return ll
