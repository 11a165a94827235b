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
  the state vector one factor at a time in an order compiled once per
  positional plan (variable elimination, Koller & Friedman 2009, ch. 9).  A
  step costs about s^(max(|V_q|, |V_q+1|)+1) per edge factor, so chains whose
  dense blocks would not fit in memory (n=4 and n=5 at small s) stay cheap.

All arithmetic runs in rescaled probability space with per-block shifts
tracked in log scale (the standard scaled forward-backward scheme), so block
kernels as small as epsilon^(n(n-1)) cause no underflow and the returned
log-likelihood is exact to float64 roundoff.

The forward-backward sweep of ``posterior_pass`` (the EM E-step) on a long
dense chain of small blocks goes in two levels, which cuts its sequential
Python steps per direction from one per block to about 3 sqrt(n) (about 110
for n = 1,500 blocks), in the spirit of the temporal-parallel smoother of
Sarkka & Garcia-Fernandez (IEEE TAC 2021).  Its longest run of n
equal-shape blocks is cut into C = n // L segments of L = isqrt(n // 2)
blocks; each segment's L-block product is built for all segments at once,
the C segment start messages are swept through those products, and then
all segments step through their blocks at once with the per-block
formulas.  At L = 1 this is the block-by-block sweep.  Scoring
(``forward_constants``) stays block by block.

Block states enumerate the support indices of a layer's nodes in row-major
order of node id within the layer (first node varies slowest); serialized
messages rely on this order.
"""

from __future__ import annotations

import copy
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
_SUBSCRIPTS = string.ascii_letters  # np.einsum's index alphabet


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


@dataclass(frozen=True)
class _ContractionPlan:
    """A tensor x contracted with fixed factors, as two-operand einsum steps.

    ``folds`` combine factors with each other; they do not involve x and run
    once per block in :meth:`prepare`.  ``steps`` run on every call, each one
    contracting the running tensor with one prepared operand, so a call does
    no path search.
    """

    folds: tuple[tuple[str, int, int], ...]  # (subscripts, operand a, operand b)
    steps: tuple[tuple[str, int], ...]  # (subscripts, operand)

    def prepare(self, factors: list[np.ndarray]) -> tuple[np.ndarray, ...]:
        """The operands of ``steps``, in order, for one block's factors."""
        operands = list(factors)
        for sub, a, b in self.folds:
            operands.append(np.einsum(sub, operands[a], operands[b]))
        return tuple(operands[k] for _, k in self.steps)


@dataclass(frozen=True)
class _FactoredBlock:
    """Edge factors that act as their block matrix: ``x @ block`` runs the
    plan's steps on (..., S) state vectors x viewed as (..., *shape) tensors."""

    plan: _ContractionPlan
    operands: tuple[np.ndarray, ...]
    shape: tuple[int, ...]

    __array_ufunc__ = None  # numpy then hands ``x @ block`` to __rmatmul__

    def __rmatmul__(self, x: np.ndarray) -> np.ndarray:
        out = x.reshape((-1,) + self.shape)
        for (sub, _), operand in zip(self.plan.steps, self.operands):
            out = np.einsum(sub, out, operand)
        return out.reshape(x.shape[:-1] + (-1,))


def _compile_plan(
    s: int, x_sub: str, out_sub: str, factor_subs: tuple[str, ...]
) -> _ContractionPlan:
    """Order the contraction ``x_sub,factor_subs... -> out_sub`` once.

    ``np.einsum_path`` picks the pairwise order greedily; no intermediate may
    exceed one state tensor times s, which keeps constant folds from growing
    into the dense block.
    """
    shapes = [(1,) + (s,) * (len(x_sub) - 1)] + [(s,) * len(f) for f in factor_subs]
    limit = s ** max(len(x_sub), len(out_sub))
    path, _ = np.einsum_path(
        ",".join((x_sub,) + factor_subs) + "->" + out_sub,
        *(np.empty(shape) for shape in shapes),
        optimize=("greedy", limit),
    )
    # Replay the path: each entry pops two operands and appends their
    # contraction.  Operand id None marks the tensor derived from x.
    live: list[tuple[str, int | None]] = [(x_sub, None)]
    live += [(sub, k) for k, sub in enumerate(factor_subs)]
    folds: list[tuple[str, int, int]] = []
    steps: list[tuple[str, int]] = []
    next_id = len(factor_subs)
    for pair in path[1:]:
        i, j = sorted(pair)
        b, a = live.pop(j), live.pop(i)
        if live:
            rest = "".join(sub for sub, _ in live) + out_sub
            result = "".join(c for c in dict.fromkeys(a[0] + b[0]) if c in rest)
        else:
            result = out_sub
        if a[1] is not None and b[1] is not None:
            folds.append((f"{a[0]},{b[0]}->{result}", a[1], b[1]))
            live.append((result, next_id))
            next_id += 1
        else:
            x, operand = (a, b) if a[1] is None else (b, a)
            steps.append((f"{x[0]},{operand[0]}->{result}", operand[1]))
            live.append((result, None))
    return _ContractionPlan(tuple(folds), tuple(steps))


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
class ContractionStep:
    """One backward step of two propagated block distributions."""

    layer: int  # transition kernel index k (maps layer k+1 -> k)
    tv: float
    step_factor: float  # 1 - nu_k
    cumulative_bound: float  # initial tv * prod (1 - nu_i)


@dataclass(frozen=True)
class ContractionProfile:
    window: tuple[int, int]
    initial_tv: float
    steps: tuple[ContractionStep, ...]


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
        # A model of R datasets stacks R dense matrices per block, so the same
        # budget bounds R; a factored chain scores one dataset per model.
        self.max_replicates = max(1, _BLOCK_CACHE_BUDGET // total_entries)
        self._plans: dict[tuple, tuple[_ContractionPlan, _ContractionPlan]] = {}
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

        Einsum subscript 0 is the batch axis and subscript 1 + a the block
        axis a.  A layer-q node without a cross edge gets a unit factor, so
        every index of either layer occurs in some factor.  Factors are sorted
        by subscripts, so types with one positional plan share its plans.
        Each edge table is scaled by its maximum and the maxima summed into
        the shift, so no entry of the implied block matrix exceeds 1.
        """
        wq, wq1, edges = block_type
        factors: dict[str, np.ndarray] = {}
        for a, b, xi in edges:
            factors[_SUBSCRIPTS[1 + a] + _SUBSCRIPTS[1 + b]] = self.log_table[xi]
        for c in _SUBSCRIPTS[1 : 1 + wq]:
            if not any(c in sub for sub in factors):
                factors[c] = np.zeros(self.s)
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
        tables = [factors[sub] for sub in subs]
        maxima = [float(t.max()) for t in tables]
        scaled = [np.exp(t - m) for t, m in zip(tables, maxima)]
        return (
            _FactoredBlock(push, push.prepare(scaled), (self.s,) * wq),
            _FactoredBlock(pull, pull.prepare(scaled), (self.s,) * wq1),
            sum(maxima),
        )


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

    ``forward_constants`` and ``posterior_pass`` sweep K rows of simplex
    weights in one recursion (``_forward_rows`` forward), each row pushed and
    pulled as its own vector-matrix product against the shared block
    matrices, so every row's result is bit-identical to a sweep of that row
    alone.  The model picks the sweep shape from the row count: on a
    one-dataset model a batch of one row, (s,) or (1, s), sweeps as a plain
    vector, and outputs keep the shape of the input.  The per-block loops do
    the recursion alone; logs, shifts, gammas and node marginals follow for
    all blocks at once, in the floating-point order of a per-block
    computation.

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
        log.debug(
            "layer chain model: engine=%s blocks=%d replicates=%d distinct=%d max_state=%d "
            "segment=%d",
            self.engine,
            self.num_blocks,
            self.replicates,
            distinct,
            self.s ** max(self.widths),
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

    def _pull(self, q: int, x: np.ndarray) -> np.ndarray:
        """M_q @ x for layer-(q+1) state vectors x, (..., s**w_{q+1}), row by row."""
        return (x[..., None, :] @ self._pulls[q])[..., 0, :]

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
        by_width: dict[int, np.ndarray] = {}
        for q, width in enumerate(self.widths):
            if width not in by_width:
                by_width[width] = np.ascontiguousarray(self._prior(probs, q))
        return [by_width[width] for width in self.widths]

    # -- forward / backward sweeps ---------------------------------------------

    def log_likelihood(self, probs):
        """Log-likelihood of simplex ``probs``: a float for shape (s,), one
        value per row for shape (K, s)."""
        return self.forward_constants(probs)[0]

    def _pieces(self, segment: int) -> tuple[tuple[int, int, int], ...]:
        """The chain in sweep pieces (first block, segment length L, segment
        count C), in block order: at ``segment`` 1 one piece of single
        blocks, else the longest equal-shape run in C = length // L segments
        of L blocks, with the blocks below and above it single.  Empty pieces
        are left out."""
        if segment == 1:
            return ((0, 1, self.num_blocks),)
        first, length = self._run
        end = first + length // segment * segment
        pieces = (0, 1, first), (first, segment, length // segment), (end, 1, self.num_blocks - end)
        return tuple(piece for piece in pieces if piece[2])

    def _run_blocks(self) -> np.ndarray:
        """(L, C, S, S) block matrices of the segmented run, [i, j] that of
        block first + j L + i; gathered from the type table by ``_type_ids``
        on first use, and dropped when ``_use`` repoints the blocks."""
        if self._segment_stack is None:
            first, length = self._run
            count = length // self.segment
            ids = self._type_ids[first : first + count * self.segment].reshape(count, -1).T
            kinds, at = np.unique(ids, return_inverse=True)
            table = np.stack([self.blocks[k][0] for k in kinds.tolist()])
            self._segment_stack = table[at.reshape(ids.shape)]
        return self._segment_stack

    def _segment_products(self, priors: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """(run blocks, segment products) for one dataset's rows: the blocks
        shaped to broadcast against (C, K, 1, S) rows, (L, C, 1, S, S), or
        (L, C, S, S) for one row (S,), and per segment j and row the product
        T_j = M diag(p) M ... diag(p) M of its L blocks, with p the run's
        layer prior, scaled to peak 1 after each of its L - 1 products.

        Raises ``H1Violated`` if any product has an entry below the smallest
        normal float (or not finite): its segment would lose mass or
        precision that the block-by-block sweep keeps."""
        first = self._run[0]
        p = priors[first + 1]
        blocks = self._run_blocks()
        if p.ndim > 1:
            blocks = blocks[:, :, None]
        product, low = blocks[0], np.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            for mat in blocks[1:]:
                product = (product * p) @ mat
                product /= np.maximum.reduce(product, axis=(-2, -1), keepdims=True)
                low = min(low, np.minimum.reduce(product, axis=None, initial=np.inf))
        if not low >= np.finfo(float).smallest_normal:
            raise H1Violated("segment product underflows")
        return blocks, product

    def _forward_rows(
        self, priors: list[np.ndarray], run: tuple | None = None
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """The scaled forward recursion of K rows on each of the model's R
        datasets: (alphas, (num_blocks, R, K) log normalizers), with
        ``priors`` of shape (K, 1, S), or (S,) for one row of one dataset.

        ``alphas[q]`` is the normalized forward message of layer q (the prior
        at q = 0), of shape (R, K, 1, S) past q = 0 when R > 1.  Each row is a
        (1, S) matrix pushed on its own against its dataset's block matrix,
        which keeps it bit-identical to a sweep of that row alone (a (K, S)
        matrix product is not).  Mass is checked once after the loop;
        ``H1Violated`` names the first block at which any row of the first
        dataset to lose mass lost it.

        Without ``run`` the sweep is block by block; with ``run``, the
        ``_segment_products`` of one dataset's rows, it goes in the pieces of
        ``_pieces(self.segment)``.  Each piece sweeps its C segment starts one
        after another, pushing w @ T_j; at L = 1, T_j is the block itself and
        this is the whole recursion.  For L > 1 the C starts then step
        through their L blocks at once, with the per-block formulas, which
        give every block's normalizer and message.
        """
        total = np.add.reduce
        # One row divides by a scalar, which is faster than by a (1, 1) array.
        rows = priors[0].ndim > 1
        w = priors[0]
        alphas, cs = [w], []
        # A row that lost its mass turns to NaN in the division and stays
        # NaN; the check after the loop reports where it happened.
        with np.errstate(divide="ignore", invalid="ignore"):
            for first, length, count in self._pieces(1 if run is None else self.segment):
                if length == 1:
                    steps = self._mats[first : first + count]
                    ends = priors[first + 1 : first + count + 1]
                else:
                    blocks, steps = run
                    p = priors[first + 1]
                    ends = [p] * count
                starts, step_cs = [w], []
                for mat, prior in zip(steps, ends):
                    w = (w @ mat) * prior
                    c = total(w, -1, keepdims=rows)
                    w /= c
                    step_cs.append(c)
                    starts.append(w)
                if length == 1:
                    alphas += starts[1:]
                    cs.append(np.reshape(step_cs, (count, -1)))
                    continue
                x = np.stack(starts[:-1]).reshape((count,) + (w.shape if rows else (1,) + w.shape))
                messages, normalizers = [], []
                for mat in blocks:
                    x = (x @ mat) * p
                    c = total(x, -1, keepdims=True)
                    x /= c
                    messages.append(x)
                    normalizers.append(c)
                alphas += list(np.stack(messages, axis=1).reshape((count * length,) + w.shape))
                cs.append(np.stack(normalizers, axis=1).reshape(count * length, -1))
            cs = np.concatenate(cs).reshape(self.num_blocks, self.replicates, -1)
            _raise_lost(~(cs > 0.0).all(axis=2), range(self.num_blocks), "likelihood")
        return alphas, np.log(cs) + self._shifts.T.reshape(self.num_blocks, -1, 1)

    def forward_constants(self, probs) -> tuple:
        """(log-likelihood, per-block log normalizers) for simplex ``probs``.

        ``probs`` of shape (s,) gives a float and a (num_blocks,) array;
        shape (K, s) gives (K,) log-likelihoods and (K, num_blocks) normalizers
        from one recursion over all rows (``_forward_rows``), each row
        bit-identical to a sweep of that row alone.  A model of R > 1 datasets
        puts a leading R axis on both.  The log-likelihood sums the
        normalizers sequentially in block order.
        """
        probs = self._simplex(probs)
        _, constants = self._forward_rows(self._priors(self._rows(probs)))
        totals, constants = np.cumsum(constants, axis=0)[-1], np.moveaxis(constants, 0, -1)
        if probs.ndim == 1:
            totals, constants = totals[:, 0], constants[:, 0]
        if self.replicates == 1:
            return totals[0], constants[0]
        return totals, constants

    def posterior_pass(self, probs) -> tuple:
        """(node marginals, log-likelihood) from one forward-backward sweep.

        ``probs`` of shape (s,) gives (N, s) marginals and a float; shape
        (R, s) gives (R, N, s) marginals and (R,) log-likelihoods from one
        sweep over all rows.  Each row stays a (1, S) row both ways, pushed
        and pulled on its own against the shared block matrices and scaled by
        its own sum going forward and its own peak going backward, so every
        row is bit-identical to a sweep of that row alone.

        A model with ``segment`` L > 1 sweeps its longest run in segments of
        L blocks (``_forward_rows``, ``_backward_rows``); its log-likelihood
        then agrees with ``log_likelihood`` within about 1e-13 relative, not
        bit for bit.  If a segment sweep loses mass anywhere, the rows that
        lose it rerun at L = 1, so a failure raises what that sweep raises.

        The backward loop only pulls beta one block down; gamma_q = alpha_q *
        beta_q and the node marginals follow in :meth:`_marginals`.  Raises
        ``H1Violated`` naming the block or layer where the backward mass
        underflows to zero or is not finite: the first place in sweep order
        (forward blocks upward, backward blocks downward, then layers) where
        any row fails, with the message that row's own sweep gives.
        """
        self._single("posterior_pass")
        probs = self._simplex(probs)
        if self.segment == 1:
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
        priors = self._priors(self._rows(probs))
        run = None if segment == 1 else self._segment_products(priors)
        alphas, constants = self._forward_rows(priors, run)
        betas = self._backward_rows(priors, run)
        totals = np.cumsum(constants, axis=0)[-1, 0]
        marginals = self._marginals(alphas, betas, probs.shape[:-1])
        return marginals, totals if probs.ndim > 1 else totals[0]

    def _backward_rows(self, priors: list[np.ndarray], run: tuple | None) -> list:
        """The peak-scaled backward recursion of one dataset's rows: betas
        of every layer, in layer order, the mirror of ``_forward_rows``.  Each
        piece sweeps its segment starts down with (p * beta) @ T_j^T, and for
        L > 1 the starts then step down through their L blocks at once.
        Raises ``H1Violated`` at the highest block whose beta has no mass
        when the lowest one has none."""
        peak_of = np.maximum.reduce
        rows = priors[0].ndim > 1
        beta = np.ones(priors[-1].shape)
        betas = [beta]
        # A row without mass turns to NaN in the division and stays NaN below
        # that block; the check after the loop finds the block.
        with np.errstate(divide="ignore", invalid="ignore"):
            for first, length, count in reversed(self._pieces(1 if run is None else self.segment)):
                if length == 1:
                    steps = self._pulls[first : first + count]
                    tops = priors[first + 1 : first + count + 1]
                else:
                    blocks, products = run
                    p = priors[first + 1]
                    steps, tops = products.swapaxes(-1, -2), [p] * count
                starts = [beta]
                for mat, prior in zip(steps[::-1], tops[::-1]):
                    beta = (prior * beta) @ mat
                    beta /= peak_of(beta, -1, keepdims=rows)
                    starts.append(beta)
                if length == 1:
                    betas += starts[1:]
                    continue
                shape = (count,) + (beta.shape if rows else (1,) + beta.shape)
                x = np.stack(starts[-2::-1]).reshape(shape)
                messages = []
                for mat in blocks[::-1].swapaxes(-1, -2):
                    x = (p * x) @ mat
                    x /= peak_of(x, -1, keepdims=True)
                    messages.append(x)
                messages = np.stack(messages[::-1], axis=1).reshape((count * length,) + beta.shape)
                betas += list(messages[::-1])
        betas.reverse()
        if np.isnan(beta).any():
            block = max(k for k in range(self.num_blocks) if np.isnan(betas[k]).any())
            raise H1Violated(f"zero posterior mass at block {block}")
        return betas

    def _marginals(self, alphas: list, betas: list, lead: tuple) -> np.ndarray:
        """``lead`` + (N, s) node marginals from every layer's forward and
        backward messages, each (R, 1, S) rows or one (S,) vector; the lists
        are emptied as it goes.

        Per distinct layer width, each row's gammas alpha_q * beta_q of that
        width are stacked and row-normalized, and one ``bincount`` per
        position sums each layer into its node's bins.  Raises ``H1Violated``
        at the first layer, per width and then per row, whose gamma sum is
        zero or not finite.
        """
        s, N = self.s, self.dataset.graph.N
        out = np.empty(lead + (N, s))
        # Rows (R, 1, S) join along their middle axis, one row (S,) along its only one.
        axis = -2 if alphas[0].ndim > 1 else -1
        for width, qs, nodes in self._width_groups:
            shape = (-1, len(qs), s**width)
            gammas = np.concatenate([alphas[q] for q in qs], axis=axis).reshape(shape)
            gammas *= np.concatenate([betas[q] for q in qs], axis=axis).reshape(shape)
            # Drop each layer's messages once stacked, so they are freed
            # width by width.
            for q in qs:
                alphas[q] = betas[q] = None
            rows = np.arange(len(qs))[:, None] * s
            digits = self._width_digits[width]
            for row_gammas, marginals in zip(gammas, out.reshape(-1, N, s)):
                sums = row_gammas.sum(axis=1)
                bad = ~(np.isfinite(sums) & (sums > 0.0))
                if bad.any():
                    raise H1Violated(f"zero posterior mass at layer {qs[int(np.argmax(bad))]}")
                row_gammas /= sums[:, None]
                weights = row_gammas.ravel()
                for pos in range(width):
                    marginals[nodes[:, pos]] = np.bincount(
                        (rows + digits[:, pos]).ravel(), weights=weights, minlength=len(qs) * s
                    ).reshape(-1, s)
        return out

    def _conditional_sweep(self, probs: np.ndarray, horizons: np.ndarray, bottom: int):
        """Yield (k, rows, P(V_k | X_{k:m_r}), log P(X_{k:m_r})) for the rows r
        with m_r = ``horizons[r]`` >= k, k = max(horizons) down to ``bottom``;
        ``probs`` is (s,) or (K, s), and a model of R > 1 datasets puts a
        leading R axis on the yielded values.  Row r starts from its
        layer-(m_r + 1) prior and is pulled and normalized alone, bit-identical
        to its own sweep.  A row without mass turns to NaN and stays NaN; after
        the sweep, ``H1Violated`` names the first block in sweep order at which
        any row of the first dataset to lose mass lost it."""
        order = np.argsort(-horizons, kind="stable")
        horizons = horizons[order]
        lead = () if self.replicates == 1 else (self.replicates,)
        priors = self._priors(np.broadcast_to(probs, lead + (order.size, self.s))[..., order, :])
        log_z, n = np.zeros(lead + (order.size,)), 0
        blocks = range(int(horizons.max(initial=bottom - 1)), bottom - 1, -1)
        lost = np.zeros((len(blocks), self.replicates), dtype=bool)
        for step, k in enumerate(blocks):
            # Rows join at their horizon: the first join starts the batch.
            start, n = n, int(np.searchsorted(-horizons, -k, side="right"))
            if n > start:
                joining = priors[k + 1][..., start:n, :]
                x = np.concatenate((x, joining), axis=-2) if start else joining
            x = priors[k][..., :n, :] * self._pull(k, x)
            c = x.sum(axis=-1)
            lost[step] = ~(c > 0.0).all(axis=-1)
            with np.errstate(divide="ignore", invalid="ignore"):
                x /= c[..., None]
                log_z[..., :n] += np.log(c) + self._shifts[..., k, None]
            yield k, order[:n], x, log_z[..., :n].copy()
        _raise_lost(lost, blocks, "conditional")

    def backward_messages(self, probs, q: int, m: int) -> BackwardMessages:
        """Messages P(V_k | X_{k:m}) and log P(X_{k:m}) for k = q..m+1."""
        self._single("backward_messages")
        self._check_window(q, m)
        probs = self._simplex(probs, rows=False)
        with np.errstate(divide="ignore"):
            messages, normalizers = [np.log(self._prior(probs, m + 1))], [0.0]
            for _, _, x, log_z in self._conditional_sweep(probs, np.array([m]), q):
                messages.append(np.log(x[0]))
                normalizers.append(log_z[0])
        return BackwardMessages((q, m), tuple(messages[::-1]), tuple(normalizers[::-1]))

    def conditional_profiles(self, probs, horizons) -> np.ndarray:
        """(K, q_max): log P(X_q | X_{q+1:m_r}) at columns 2 <= q <= m_r, else NaN.
        Row r has horizon ``horizons[r]`` (or the one given) and ``probs`` or
        ``probs[r]``.  A model of R > 1 datasets gives (R, K, q_max)."""
        probs = self._simplex(probs)
        horizons = np.zeros(probs.shape[:-1], dtype=int) + np.array(horizons, dtype=int, ndmin=1)
        # a set, not np.unique: numpy >= 2 imports numpy.ma on that call
        for m in sorted(set(horizons.ravel().tolist())):
            self._check_window(2, m)
        lead = () if self.replicates == 1 else (self.replicates,)
        z = np.full(lead + (horizons.size, self.layers.q_max + 1), np.nan)
        z[..., np.arange(horizons.size), horizons + 1] = 0.0
        for k, rows, _, log_z in self._conditional_sweep(probs, horizons, 2):
            z[..., rows, k] = log_z
        return z[..., :-1] - z[..., 1:]

    def _check_window(self, q: int, m: int) -> None:
        if not 2 <= q <= m <= self.layers.q_max - 1:
            raise LayerOutOfRange(
                f"window must satisfy 2 <= q <= m <= q_max-1 = "
                f"{self.layers.q_max - 1}, got q={q}, m={m}"
            )

    # -- realized backward kernels and their contraction -------------------------

    def backward_kernels(self, probs, q: int, m: int) -> list[np.ndarray]:
        """Row-stochastic matrices R_k mapping layer k+1 states to layer k states.

        R_k[w, a] = P(V_k = a | V_{k+1} = w, X_{q:k}), for k = q..m-1, i.e. the
        realized one-step kernels of the latent chain run backward under the
        conditioning window starting at q.
        """
        self._single("backward_kernels")
        self._check_window(q, m)
        priors = self._priors(self._simplex(probs, rows=False))
        kernels = []
        g = np.ones(self.s ** self.widths[q])  # P(X_{q:k-1} | V_k), scaled
        for k in range(q, m):
            mat = np.eye(self.s ** self.widths[k]) @ self._mats[k]
            weighted = priors[k][:, None] * g[:, None] * mat
            denom = weighted.sum(axis=0)
            if np.any(denom <= 0.0):
                raise H1Violated(f"zero conditional mass at block {k}")
            kernels.append(np.ascontiguousarray(weighted.T / denom[:, None]))
            g = denom / denom.max()
        return kernels

    def contraction_profile(self, probs, q: int, m: int) -> ContractionProfile:
        """Propagate two block distributions of layer m backward to layer q:
        the point masses on its first and last block states.

        Records the total-variation distance (full-sum convention, range
        [0, 2]) after each realized kernel application, the per-step Doeblin
        factor 1 - nu_k (:meth:`block_nus`), and the cumulative envelope
        initial_tv * prod(1 - nu_i).
        """
        self._single("contraction_profile")
        self._check_window(q, m)
        size_m = self.s ** self.widths[m]
        mu1 = np.zeros(size_m)
        mu1[0] = 1.0
        mu2 = np.zeros(size_m)
        mu2[-1] = 1.0
        kernels = self.backward_kernels(probs, q, m)
        nus = self.block_nus()
        initial_tv = float(np.abs(mu1 - mu2).sum())
        steps = []
        cumulative = initial_tv
        for k in range(m - 1, q - 1, -1):
            kern = kernels[k - q]
            mu1 = mu1 @ kern
            mu2 = mu2 @ kern
            factor = 1.0 - nus[k]
            cumulative *= factor
            steps.append(
                ContractionStep(
                    layer=k,
                    tv=float(np.abs(mu1 - mu2).sum()),
                    step_factor=factor,
                    cumulative_bound=cumulative,
                )
            )
        return ContractionProfile(window=(q, m), initial_tv=initial_tv, steps=tuple(steps))


# -- module-level operations ------------------------------------------------------


def _raise_lost(lost: np.ndarray, blocks, what: str) -> None:
    """Raise ``H1Violated`` if a dataset lost its ``what`` mass: ``lost`` is
    (len(blocks), R) flags in sweep order, and the message names the first
    lost block of the first dataset that lost any, as its own sweep would."""
    if lost.any():
        r = int(np.argmax(lost.any(axis=0)))
        raise H1Violated(f"zero {what} mass at block {blocks[int(np.argmax(lost[:, r]))]}")


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
