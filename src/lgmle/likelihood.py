"""Exact likelihood on the distance-layer chain by variable elimination.

The joint law of outcomes factorizes over chain blocks: block q couples the
latent weights of layers q and q+1 through the product of edge kernels over
the cross edges q<->q+1 and the within edges of layer q+1.  Eliminating the
layer blocks in order gives the exact marginal likelihood.

A block is fully described by its block type: the two layer widths and, per
edge in edge order, the block axes of its endpoints and its outcome index.
The round-robin schedule is periodic, so a long chain has few distinct
types; each is built once and shared by its blocks.  A block acts on state
vectors of s^|V_q| entries through one of two engines:

* dense: the type's s^|V_q| x s^|V_q+1| transition matrix is built once, by
  broadcast-adding its edge log tables, and applied as a matrix product.
  Used when the chain's blocks hold at most ``_BLOCK_CACHE_BUDGET`` entries
  in total.
* factored: the type stays a product of pairwise edge factors, contracted
  with the state vector one factor at a time in an order compiled once per
  positional plan (variable elimination, Koller & Friedman 2009, ch. 9).  A
  step costs about s^(max(|V_q|, |V_q+1|)+1) per edge factor, so chains whose
  dense blocks would not fit in memory (n=4 and n=5 at small s) stay cheap.

All arithmetic runs in rescaled probability space with per-block shifts
tracked in log scale (the standard scaled forward-backward scheme), so block
kernels as small as epsilon^(n(n-1)) cause no underflow and the returned
log-likelihood is exact to float64 roundoff.

Block states enumerate the support indices of a layer's nodes in row-major
order of node id within the layer (first node varies slowest); serialized
messages rely on this order.
"""

from __future__ import annotations

import logging
import string
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .distributions import DiscreteDistribution
from .errors import (
    H1Violated,
    LayerOutOfRange,
    TooLargeForBruteForce,
)
from .kernels import EpsilonCertificate, Kernel, _table_floor
from .simulator import Dataset

log = logging.getLogger(__name__)

_BRUTE_FORCE_CAP = 1_000_000
# Chains whose dense blocks hold at most this many entries in total run on
# the dense engine; larger ones run factored.
_BLOCK_CACHE_BUDGET = 4_000_000
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

    def run(self, x: np.ndarray, operands: tuple[np.ndarray, ...]) -> np.ndarray:
        for (sub, _), operand in zip(self.steps, operands):
            x = np.einsum(sub, x, operand)
        return x


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


class LayerChainModel:
    """Chain representation of one (dataset, kernel, support) triple.

    Each chain block is described once, by its block type ``(w_q, w_{q+1},
    cross factors, within factors)``: one factor ``(axis of i, axis of j,
    outcome index)`` per edge (i, j), i < j, in edge order.  Axes 0..w_q-1
    are the positions of layer q and w_q.. those of layer q+1.  The
    round-robin schedule is periodic, so few types recur along the chain (6
    of 1500 blocks at N=3000, n=2); each distinct type is built once and
    every block of that type shares it.

    Blocks depend on the kernel and the support grid but not on the simplex
    weights, so a model can be reused across candidate distributions (EM
    iterations, grid scans) on a fixed support.  ``engine`` says how blocks
    are applied: "dense" builds each type's transition matrix when the
    chain's blocks hold at most ``_BLOCK_CACHE_BUDGET`` entries in total;
    "factored" keeps each type as its edge factors and contracts them with
    the state vectors in an order compiled once per positional plan.  Both
    engines give the same per-block log normalizers up to float64 roundoff.

    ``floor`` is the kernel's H1 floor epsilon on the support grid (a model
    without one raises ``H1Violated``), and :meth:`block_nus` gives each
    block's Doeblin coefficient from it, for the mixing envelopes.

    ``forward_constants`` and ``posterior_pass`` sweep K rows of simplex
    weights in one recursion (``_forward_rows`` forward), each row pushed and
    pulled as its own vector-matrix product against the shared block
    matrices, so every row's result is bit-identical to a sweep of that row
    alone; one row sweeps as a plain vector.  The per-block loops do the
    recursion alone; logs, shifts, gammas and node marginals follow for all
    blocks at once, in the floating-point order of a per-block computation.
    All methods are pure; instances are safe for concurrent reads.
    """

    def __init__(self, dataset: Dataset, kernel: Kernel, support):
        self.dataset = dataset
        self.kernel = kernel
        self.support = np.asarray(support, dtype=float)
        self.s = self.support.size
        layers = dataset.layers
        self.layers = layers
        self.num_blocks = layers.q_max + 1

        self.log_table = kernel.log_table(self.support)
        self.floor: EpsilonCertificate = _table_floor(kernel, self.support, self.log_table)

        self.widths = [len(layer) for layer in layers.node_layers]
        layer_of = layers.layer_of()
        pos_of = {
            v: p for layer in layers.node_layers for p, v in enumerate(layer)
        }
        outcome_index = kernel.outcome_index
        outcomes = dataset.outcomes
        # Per block: the index of its type in self._types.
        types: dict[tuple, int] = {}
        self._block_type: list[int] = []
        self.block_sizes: list[int] = []
        for q in range(self.num_blocks):
            wq = self.widths[q]
            # A cross edge joins layers q and q+1; either endpoint may be i.
            cross = tuple(
                (pos_of[i], wq + pos_of[j], outcome_index(outcomes[(i, j)]))
                if layer_of[i] == q
                else (wq + pos_of[i], pos_of[j], outcome_index(outcomes[(i, j)]))
                for i, j in layers.cross_edges[q]
            )
            within = tuple(
                (wq + pos_of[i], wq + pos_of[j], outcome_index(outcomes[(i, j)]))
                for i, j in layers.within_edges[q + 1]
            )
            key = (wq, self.widths[q + 1], cross, within)
            self._block_type.append(types.setdefault(key, len(types)))
            self.block_sizes.append(len(cross) + len(within))
        self._types = list(types)

        total_entries = sum(
            self.s ** (self.widths[q] + self.widths[q + 1]) for q in range(self.num_blocks)
        )
        self._mats: list[np.ndarray] | None = None
        self._pulls: list[np.ndarray] | None = None
        self._factored: list[tuple] | None = None
        if total_entries <= _BLOCK_CACHE_BUDGET:
            self.engine = "dense"
            built = [self._build_dense(block_type) for block_type in self._types]
            self._mats = [built[k][0] for k in self._block_type]
            # Row by row, x @ M.T is the product M @ x of _pull, bit for bit.
            transposed = [mat.T for mat, _ in built]
            self._pulls = [transposed[k] for k in self._block_type]
        else:
            self.engine = "factored"
            built = self._compile_factored()
            self._factored = [built[k][0] for k in self._block_type]
        self._shifts = np.array([built[k][1] for k in self._block_type])
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
        log.debug(
            "layer chain model: engine=%s blocks=%d distinct=%d max_state=%d",
            self.engine,
            self.num_blocks,
            len(self._types),
            self.s ** max(self.widths),
        )

    def block_nus(self) -> list[float]:
        """The Doeblin coefficient nu_k = epsilon**|X_k| of every block k."""
        return [self.floor.nu(size) for size in self.block_sizes]

    # -- block construction -------------------------------------------------

    def _log_matrix(self, block_type: tuple) -> np.ndarray:
        """log M of one block type, (s**w_q, s**w_{q+1}).

        The cross factors' log tables are added in edge order; the within
        factors are summed into an upper-layer vector first, then added.
        """
        wq, wq1, cross, within = block_type
        s = self.s
        log_m = np.zeros((s,) * (wq + wq1))
        for a, b, xi in cross:
            log_m += _placed(self.log_table[xi], a, b, wq + wq1)
        if within:
            vec = np.zeros((s,) * wq1)
            for a, b, xi in within:
                vec += _placed(self.log_table[xi], a - wq, b - wq, wq1)
            log_m += vec
        return log_m.reshape(s**wq, s**wq1)

    def _block_log_matrix(self, q: int) -> np.ndarray:
        return self._log_matrix(self._types[self._block_type[q]])

    def _build_dense(self, block_type: tuple) -> tuple[np.ndarray, float]:
        log_m = self._log_matrix(block_type)
        shift = float(log_m.max())
        return np.exp(log_m - shift), shift

    def _compile_factored(self) -> list[tuple[tuple, float]]:
        """Per block type: ((push plan, its operands, pull plan, its
        operands), log shift).

        Einsum subscript 0 is the batch axis and subscript 1 + a the block
        axis a.  A layer-q node without a cross edge gets a unit factor, so
        every index of either layer occurs in some factor.  Factors are sorted
        by subscripts, so types with one positional plan share its plans.
        Each edge table is scaled by its maximum and the maxima summed into
        the shift, so no entry of the implied block matrix exceeds 1.
        """
        plans: dict[tuple, tuple[_ContractionPlan, _ContractionPlan]] = {}
        built: list[tuple[tuple, float]] = []
        for wq, wq1, cross, within in self._types:
            factors: dict[str, np.ndarray] = {}
            for a, b, xi in cross + within:
                factors[_SUBSCRIPTS[1 + a] + _SUBSCRIPTS[1 + b]] = self.log_table[xi]
            for c in _SUBSCRIPTS[1 : 1 + wq]:
                if not any(c in sub for sub in factors):
                    factors[c] = np.zeros(self.s)
            subs = tuple(sorted(factors))
            key = (wq, wq1, subs)
            if key not in plans:
                lower = _SUBSCRIPTS[: 1 + wq]
                upper = _SUBSCRIPTS[0] + _SUBSCRIPTS[1 + wq : 1 + wq + wq1]
                plans[key] = (
                    _compile_plan(self.s, lower, upper, subs),
                    _compile_plan(self.s, upper, lower, subs),
                )
            push, pull = plans[key]
            tables = [factors[sub] for sub in subs]
            maxima = [float(t.max()) for t in tables]
            scaled = [np.exp(t - m) for t, m in zip(tables, maxima)]
            built.append(((push, push.prepare(scaled), pull, pull.prepare(scaled)), sum(maxima)))
        return built

    def _push(self, q: int, x: np.ndarray) -> np.ndarray:
        """x @ M_q for layer-q state vectors x, shape (..., s**w_q)."""
        if self._mats is not None:
            return x @ self._mats[q]
        plan, operands, _, _ = self._factored[q]
        out = plan.run(x.reshape((-1,) + (self.s,) * self.widths[q]), operands)
        return out.reshape(x.shape[:-1] + (-1,))

    def _matrix(self, q: int) -> np.ndarray:
        """M_q, scaled by its shift; the factored engine pushes the identity."""
        if self._mats is not None:
            return self._mats[q]
        return self._push(q, np.eye(self.s ** self.widths[q]))

    def _pull(self, q: int, x: np.ndarray) -> np.ndarray:
        """M_q @ x for layer-(q+1) state vectors x, (..., s**w_{q+1}), row by row."""
        if self._mats is not None:
            return (self._mats[q] @ x[..., None])[..., 0]
        _, _, plan, operands = self._factored[q]
        out = plan.run(x.reshape((-1,) + (self.s,) * self.widths[q + 1]), operands)
        return out.reshape(x.shape[:-1] + (-1,))

    # -- priors ---------------------------------------------------------------

    def _prior(self, probs: np.ndarray, q: int) -> np.ndarray:
        """The block prior of layer q along the last axis of ``probs``."""
        width = self.widths[q]
        if width == 1:
            return probs
        return probs[..., self._width_digits[width]].prod(axis=-1)

    @staticmethod
    def _rows(probs: np.ndarray) -> np.ndarray:
        """Simplex rows (K, s) as (K, 1, s), the shape of a batched sweep; one (s,) stays."""
        return probs[:, None, :] if probs.ndim > 1 else probs

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

    def _forward_rows(self, priors: list[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
        """The scaled forward recursion of R rows: (alphas, (num_blocks, R) log
        normalizers), with ``priors`` and ``alphas`` of shape (R, 1, S), or
        (S,) for one row (R = 1).

        ``alphas[q]`` is the normalized forward message of layer q (the prior
        at q = 0).  Each row is a (1, S) matrix pushed on its own, which keeps
        it bit-identical to a sweep of that row alone (a (R, S) matrix product
        is not).  Mass is checked once after the loop; ``H1Violated`` names
        the first block at which any row's mass is zero.
        """
        mats = self._mats
        total = np.add.reduce
        # One row divides by a scalar, which is faster than by a (1, 1) array.
        rows = priors[0].ndim > 1
        w = priors[0]
        alphas, cs = [w], []
        # A row that lost its mass turns to NaN in the division and stays
        # NaN; the check after the loop reports where it happened.
        with np.errstate(divide="ignore", invalid="ignore"):
            for q in range(self.num_blocks):
                w = (w @ mats[q] if mats is not None else self._push(q, w)) * priors[q + 1]
                c = total(w, -1, keepdims=rows)
                w /= c
                cs.append(c)
                alphas.append(w)
            cs = np.array(cs).reshape(self.num_blocks, -1)
            lost = ~(cs > 0.0).all(axis=1)
        if lost.any():
            raise H1Violated(f"zero likelihood mass at block {int(np.argmax(lost))}")
        return alphas, np.log(cs) + self._shifts[:, None]

    def forward_constants(self, probs) -> tuple:
        """(log-likelihood, per-block log normalizers) for simplex ``probs``.

        ``probs`` of shape (s,) gives a float and a (num_blocks,) array;
        shape (K, s) gives (K,) log-likelihoods and (K, num_blocks) normalizers
        from one recursion over all rows (``_forward_rows``), each row
        bit-identical to a sweep of that row alone.  The log-likelihood sums
        the normalizers sequentially in block order.
        """
        probs = np.asarray(probs, dtype=float)
        _, constants = self._forward_rows(self._priors(self._rows(probs)))
        totals = np.cumsum(constants, axis=0)[-1]
        if probs.ndim == 1:
            return totals[0], constants[:, 0]
        return totals, constants.T

    def node_marginals(self, probs) -> np.ndarray:
        """(N, s) posterior P(V_i = support[a] | outcomes); row i-1 is node i."""
        return self.posterior_pass(probs)[0]

    def posterior_pass(self, probs) -> tuple:
        """(node marginals, log-likelihood) from one forward-backward sweep.

        ``probs`` of shape (s,) gives (N, s) marginals and a float; shape
        (R, s) gives (R, N, s) marginals and (R,) log-likelihoods from one
        sweep over all rows.  Each row stays a (1, S) row both ways, pushed
        and pulled on its own against the shared block matrices and scaled by
        its own sum going forward and its own peak going backward, so every
        row is bit-identical to a sweep of that row alone.

        The backward loop only pulls beta one block down; gamma_q = alpha_q *
        beta_q and the node marginals follow in :meth:`_marginals`.  Raises
        ``H1Violated`` naming the block or layer where the backward mass
        underflows to zero or is not finite: the first place in sweep order
        (forward blocks upward, backward blocks downward, then layers) where
        any row fails, with the message that row's own sweep gives.
        """
        probs = np.asarray(probs, dtype=float)
        priors = self._priors(self._rows(probs))
        alphas, constants = self._forward_rows(priors)
        pulls = self._pulls
        peak_of = np.maximum.reduce
        rows = probs.ndim > 1
        beta = np.ones(priors[-1].shape)
        betas = [beta]
        # A row without mass turns to NaN in the division and stays NaN below
        # that block; the check after the loop finds the block.
        with np.errstate(divide="ignore", invalid="ignore"):
            for q in range(self.num_blocks, 0, -1):
                x = priors[q] * beta
                beta = x @ pulls[q - 1] if pulls is not None else self._pull(q - 1, x)
                beta /= peak_of(beta, -1, keepdims=rows)
                betas.append(beta)
        betas.reverse()
        if np.isnan(beta).any():
            block = max(k for k in range(self.num_blocks) if np.isnan(betas[k]).any())
            raise H1Violated(f"zero posterior mass at block {block}")
        totals = np.cumsum(constants, axis=0)[-1]
        return self._marginals(alphas, betas, probs.shape[:-1]), totals if rows else totals[0]

    def _marginals(self, alphas: list, betas: list, lead: tuple) -> np.ndarray:
        """``lead`` + (N, s) node marginals from every layer's forward and
        backward messages, each ``lead`` + (S,) (a row (R, 1, S) for ``lead``
        (R,)); the lists are emptied as it goes.

        Per distinct layer width, each row's gammas alpha_q * beta_q of that
        width are stacked and row-normalized, and one ``bincount`` per
        position sums each layer into its node's bins.  Raises ``H1Violated``
        at the first layer, per width and then per row, whose gamma sum is
        zero or not finite.
        """
        s, N = self.s, self.dataset.graph.N
        out = np.empty(lead + (N, s))
        # Rows (R, 1, S) join along their middle axis, one row (S,) along its only one.
        axis = -2 if lead else -1
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
        ``probs`` is (s,) or (K, s).  Row r starts from its layer-(m_r + 1)
        prior and is pulled and normalized alone, bit-identical to its own
        sweep.  Raises ``H1Violated`` at the first block where any row has no mass."""
        order = np.argsort(-horizons, kind="stable")
        horizons = horizons[order]
        priors = self._priors(np.broadcast_to(probs, (order.size, self.s))[order])
        log_z, n = np.zeros(order.size), 0
        for k in range(int(horizons.max(initial=bottom - 1)), bottom - 1, -1):
            # Rows join at their horizon: the first join starts the batch.
            start, n = n, int(np.searchsorted(-horizons, -k, side="right"))
            if n > start:
                x = np.concatenate((x, priors[k + 1][start:n])) if start else priors[k + 1][:n]
            x = priors[k][:n] * self._pull(k, x)
            c = x.sum(axis=-1)
            if not (c > 0.0).all():
                raise H1Violated(f"zero conditional mass at block {k}")
            x /= c[:, None]
            log_z[:n] += np.log(c) + self._shifts[k]
            yield k, order[:n], x, log_z[:n].copy()

    def backward_messages(self, probs, q: int, m: int) -> BackwardMessages:
        """Messages P(V_k | X_{k:m}) and log P(X_{k:m}) for k = q..m+1."""
        self._check_window(q, m)
        probs = np.asarray(probs, dtype=float)
        with np.errstate(divide="ignore"):
            messages, normalizers = [np.log(self._prior(probs, m + 1))], [0.0]
            for _, _, x, log_z in self._conditional_sweep(probs, np.array([m]), q):
                messages.append(np.log(x[0]))
                normalizers.append(log_z[0])
        return BackwardMessages((q, m), tuple(messages[::-1]), tuple(normalizers[::-1]))

    def conditional_log_prob(self, probs, q: int, m: int) -> float:
        """log P(X_q | X_{q+1:m}) on the interior window."""
        msgs = self.backward_messages(probs, q, m)
        return msgs.log_normalizers[0] - msgs.log_normalizers[1]

    def conditional_profiles(self, probs, horizons) -> np.ndarray:
        """(R, q_max): log P(X_q | X_{q+1:m_r}) at columns 2 <= q <= m_r, else NaN.
        Row r has horizon ``horizons[r]`` (or the one given) and ``probs`` or ``probs[r]``."""
        probs = np.asarray(probs, dtype=float)
        horizons = np.zeros(probs.shape[:-1], dtype=int) + np.array(horizons, dtype=int, ndmin=1)
        for m in np.unique(horizons).tolist():
            self._check_window(2, m)
        z = np.full((horizons.size, self.layers.q_max + 1), np.nan)
        z[np.arange(horizons.size), horizons + 1] = 0.0
        for k, rows, _, log_z in self._conditional_sweep(probs, horizons, 2):
            z[rows, k] = log_z
        return z[:, :-1] - z[:, 1:]

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
        self._check_window(q, m)
        priors = self._priors(np.asarray(probs, dtype=float))
        kernels = []
        g = np.ones(self.s ** self.widths[q])  # P(X_{q:k-1} | V_k), scaled
        for k in range(q, m):
            mat = self._matrix(k)
            weighted = priors[k][:, None] * g[:, None] * mat
            denom = weighted.sum(axis=0)
            if np.any(denom <= 0.0):
                raise H1Violated(f"zero conditional mass at block {k}")
            kernels.append(np.ascontiguousarray(weighted.T / denom[:, None]))
            g = denom / denom.max()
        return kernels

    def contraction_profile(
        self,
        probs,
        q: int,
        m: int,
        mu1: np.ndarray | None = None,
        mu2: np.ndarray | None = None,
    ) -> ContractionProfile:
        """Propagate two block distributions of layer m backward to layer q.

        Records the total-variation distance (full-sum convention, range
        [0, 2]) after each realized kernel application, the per-step Doeblin
        factor 1 - nu_k (:meth:`block_nus`), and the cumulative envelope
        initial_tv * prod(1 - nu_i).  Defaults: point masses on the first and
        last block states of layer m.
        """
        self._check_window(q, m)
        size_m = self.s ** self.widths[m]
        if mu1 is None:
            mu1 = np.zeros(size_m)
            mu1[0] = 1.0
        if mu2 is None:
            mu2 = np.zeros(size_m)
            mu2[-1] = 1.0
        mu1 = np.asarray(mu1, dtype=float)
        mu2 = np.asarray(mu2, dtype=float)
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


def _support_groups(dists) -> list[list[int]]:
    """Indices of ``dists`` grouped by support, in order of first appearance."""
    groups: dict[tuple, list[int]] = {}
    for k, d in enumerate(dists):
        groups.setdefault(tuple(d.support), []).append(k)
    return list(groups.values())


def _log_likelihoods(dataset: Dataset, kernel: Kernel, dists) -> np.ndarray:
    """Log-likelihood of every distribution in ``dists``, in order.

    Distributions on a common support are scored on one model in one batched
    forward sweep.  Each model is dropped before the next is built, so at
    most one is alive.
    """
    out = np.empty(len(dists))
    for indices in _support_groups(dists):
        rows = np.array([dists[k].probs for k in indices])
        support = dists[indices[0]].support
        out[indices] = LayerChainModel(dataset, kernel, support).log_likelihood(rows)
    return out


def log_likelihood(dataset: Dataset, pi: DiscreteDistribution, kernel: Kernel) -> float:
    """Exact log of the outcome likelihood, all weight assignments marginalized."""
    return LayerChainModel(dataset, kernel, pi.support).log_likelihood(pi.probs)


def log_likelihood_profile(
    dataset: Dataset, pi: DiscreteDistribution, kernel: Kernel
) -> tuple[float, np.ndarray]:
    """(log-likelihood, per-block log normalizers) for diagnostics dumps."""
    return LayerChainModel(dataset, kernel, pi.support).forward_constants(pi.probs)


def brute_force_log_likelihood(
    dataset: Dataset, pi: DiscreteDistribution, kernel: Kernel
) -> float:
    """Enumeration oracle: direct sum over all support**N assignments."""
    ll = _brute_force_assignment_logliks(dataset, pi, kernel)
    return float(logsumexp(ll))


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


def posterior_node_marginals(
    dataset: Dataset, pi: DiscreteDistribution, kernel: Kernel
) -> np.ndarray:
    """Exact posterior P(V_i = support[a] | outcomes) for every node, (N, s)."""
    return LayerChainModel(dataset, kernel, pi.support).node_marginals(pi.probs)


def conditional_log_prob(
    dataset: Dataset, pi: DiscreteDistribution, kernel: Kernel, q: int, m: int
) -> float:
    """log P(X_q | X_{q+1:m}) for an interior window 2 <= q <= m <= q_max-1."""
    return LayerChainModel(dataset, kernel, pi.support).conditional_log_prob(pi.probs, q, m)


def backward_messages(
    dataset: Dataset, pi: DiscreteDistribution, kernel: Kernel, q: int, m: int
) -> BackwardMessages:
    return LayerChainModel(dataset, kernel, pi.support).backward_messages(pi.probs, q, m)


def backward_contraction_profile(
    dataset: Dataset,
    pi: DiscreteDistribution,
    kernel: Kernel,
    mu1: np.ndarray | None = None,
    mu2: np.ndarray | None = None,
) -> ContractionProfile:
    """Measured total-variation contraction of the realized backward kernels
    over the interior window, from layer q_max - 1 down to layer 2."""
    model = LayerChainModel(dataset, kernel, pi.support)
    return model.contraction_profile(pi.probs, 2, dataset.layers.q_max - 1, mu1=mu1, mu2=mu2)

