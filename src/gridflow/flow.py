"""Row-autoregressive affine flow over squeezed grids.

The density direction maps a grid X to latents Z in one pass:

    Z[i, j] = sigma[i, j] * X[i, j] + mu[i, j]

with (mu, log sigma) computed by the conv net from the rows strictly above i
(the net sees the row-shifted grid). The Jacobian is triangular with
diagonal sigma, so log|det| is just sum(log sigma). Stacks compose several
flows, permuting grid rows between flows; FlowStack.row_orders composes the
permutations, and each flow gathers its rows of the one conditioner grid. This
direction, and so likelihood and training, runs net_forward: the compiled
kernel over the whole grid. Given a saved list, each step keeps what its
backward reads, and stack_backward runs the closed-form adjoints in
reverse: the permutation, the affine map and its log-det, the net, the row
shift.

The sampling direction inverts row by row: row i of X needs only rows < i,
so h sequential net evaluations reconstruct the grid exactly. Both sampling
engines share one walk back through the flows (sample_walk), run the
tape-free compiled_forward and divide by floored_sigma: the naive reference
here re-runs it over rows 0..i for every row i, and the queued engine
(synth.py) runs it on one row through per-layer ring buffers.

Also here: the loop-built, fully autoregressive 1-D reference transform
that `verify` compares the degenerate h = n grid against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .network import ConvNetParams, compile_net, compiled_forward, net_backward, net_forward
from .signal import Permutation

LOG_2PI = float(np.log(2.0 * np.pi))
SIGMA_FLOOR_LOG = -7.0


@dataclass
class FlowStack:
    """Flows applied in order in the density direction, each then permuting rows."""

    nets: list[ConvNetParams]
    permutations: list[Permutation]

    def __post_init__(self):
        if len(self.nets) != len(self.permutations):
            raise ValidationError("need one permutation per flow")

    @property
    def n_flows(self) -> int:
        return len(self.nets)

    def parameters(self):
        out = []
        for net in self.nets:
            out += net.parameters()
        return out

    def row_orders(self) -> list[np.ndarray]:
        """Per flow k, the grid rows its input holds: its row i is grid row orders[k][i]."""
        orders = [np.arange(self.permutations[0].height)]
        for perm in self.permutations[:-1]:  # undo the scatter out[row_map[i]] = in[i]
            orders.append(orders[-1][np.argsort(perm.row_map)])
        return orders


@dataclass
class LikelihoodReport:
    """Exact log-likelihood of one grid, split into its two terms."""

    log_det: float
    base_term: float
    n_dims: int

    @property
    def total(self) -> float:
        return self.log_det + self.base_term

    @property
    def per_dim(self) -> float:
        return self.total / self.n_dims


@dataclass
class SynthStats:
    """Counters filled in while sampling; row_flops has the multiply-adds each queued row
    step computes, which skips the width taps that are dead at the grid's width and the
    height taps whose ring slot is not yet written."""

    row_steps: int = 0
    full_net_evals: int = 0
    sigma_floored: int = 0
    row_flops: list[int] = field(default_factory=list)


def flow_inverse(x, cond, net: ConvNetParams, saved=None, flow: int = 0):
    """Density direction for one flow: grid -> (Z, log_det), arrays.

    Given a saved list, appends net_forward's entry, then (x, sigma). Aborts
    naming the flow and grid location of the first non-finite (mu, log sigma).
    """
    shifted = np.zeros_like(x)
    shifted[1:] = x[:-1]  # row i sees rows strictly above it
    mu, log_sigma = net_forward(shifted, cond, net, saved)
    for name, t in (("mu", mu), ("log_sigma", log_sigma)):
        bad = ~np.isfinite(t)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise NumericalError(f"non-finite {name} in flow {flow} at grid row {i}, column {j}")
    sigma = np.exp(log_sigma)
    if saved is not None:
        saved.append((x, sigma))
    return sigma * x + mu, log_sigma.sum()


def floored_sigma(log_sigma: np.ndarray, stats: SynthStats | None = None) -> np.ndarray:
    """exp(log_sigma), floored at exp(-7); floored entries are tallied in stats.

    Sampling divides by sigma, so a collapsed scale is floored rather than
    letting the division blow up.
    """
    sigma = np.exp(log_sigma)
    floor = np.exp(np.asarray(SIGMA_FLOOR_LOG, dtype=sigma.dtype))
    low = sigma < floor
    if low.any():
        sigma = np.maximum(sigma, floor)
        if stats is not None:
            stats.sigma_floored += int(low.sum())
    return sigma


def flow_forward(
    z: np.ndarray,
    cond,
    net: ConvNetParams,
    stats: SynthStats | None = None,
) -> np.ndarray:
    """Sampling direction for one flow, one net pass per row (reference).

    Row i of the output depends only on already-generated rows < i, so the
    grid is filled top to bottom, and pass i runs over rows 0..i only.
    """
    z = np.asarray(z)
    h, w = z.shape
    cnet = compile_net(net)
    x = np.zeros_like(z)
    shifted = np.zeros_like(z)
    for i in range(h):
        mu, log_sigma = compiled_forward(
            cnet, shifted[: i + 1], None if cond is None else cond[:, : i + 1]
        )
        x[i] = (z[i] - mu[i]) / floored_sigma(log_sigma[i], stats)
        if i + 1 < h:
            shifted[i + 1] = x[i]
        if stats is not None:
            stats.row_steps += 1
            stats.full_net_evals += 1
    return x


def flow_conds(cond, stack: FlowStack, shape):
    """Flow k -> a C-contiguous gather of its rows of the (M, h, w) conditioner grid, or None."""
    if cond is not None and cond.shape[1:] != tuple(shape):
        raise ValidationError(f"conditioner grid {cond.shape} does not cover the {shape} grid")
    orders = stack.row_orders()
    return lambda k: None if cond is None else np.take(cond, orders[k], axis=1)


def stack_loglik_terms(x, cond, stack: FlowStack, saved=None):
    """Density core: grid -> (Z0, log_det sum, standard-normal term).

    `cond` is the (M, h, w) conditioner grid in the waveform's row order, or
    None. If `saved` is a list, each flow's entries and then the latent are
    appended for stack_backward.
    """
    z, log_det = x, None
    cond_of = flow_conds(cond, stack, x.shape)
    for k, (net, perm) in enumerate(zip(stack.nets, stack.permutations)):
        y, ld = flow_inverse(z, cond_of(k), net, saved, k)
        z = np.empty_like(y)
        z[perm.row_map] = y
        log_det = ld if log_det is None else log_det + ld
    base = (z * z).sum() * -0.5 - 0.5 * z.size * LOG_2PI
    if saved is not None:
        saved.append(z)
    return z, log_det, base


def stack_backward(saved: list, cond, stack: FlowStack, d_log_det, d_base, grads: dict):
    """Backward of stack_loglik_terms(x, cond, stack, saved) for the gradients of its
    log_det and base.

    Pops its entries flow by flow, so a flow's activations go once its
    gradients exist, and gathers each flow's conditioner rows again from the
    one grid. Adds parameter gradients into grads; returns the grid's
    gradient and the conditioner grid's (None if unconditioned), each flow's
    conditioner gradient scattered back to the grid rows it gathered.
    """
    dz = -d_base * saved.pop()
    d_cond = None
    orders = stack.row_orders()
    cond_of = flow_conds(cond, stack, dz.shape)
    for k in reversed(range(stack.n_flows)):
        dz = dz[stack.permutations[k].row_map]  # the scatter's adjoint
        x, sigma = saved.pop()
        d_rows, d_flow = net_backward(saved, cond_of(k), dz, dz * sigma * x + d_log_det, grads)
        dz = dz * sigma
        dz[:-1] += d_rows[1:]  # the row shift's adjoint
        if d_flow is not None:
            d_cond = np.zeros_like(d_flow) if d_cond is None else d_cond
            d_cond[:, orders[k]] += d_flow  # the gather's adjoint
    return dz, d_cond


def stack_inverse(x, cond, stack: FlowStack) -> tuple[np.ndarray, LikelihoodReport]:
    """Grid -> latent plus its exact likelihood report."""
    z, log_det, base = stack_loglik_terms(x, cond, stack)
    report = LikelihoodReport(log_det=float(log_det), base_term=float(base), n_dims=z.size)
    return z, report


def sample_walk(z, cond, stack: FlowStack, sample_flow, stats: SynthStats | None):
    """Latent -> grid through the flows in reverse; sample_flow(x, cond_k, net, stats)
    runs one flow's sampling direction, given its input rows and its conditioner rows."""
    x = np.asarray(z)
    cond_of = flow_conds(cond, stack, x.shape)
    for k in reversed(range(stack.n_flows)):
        x = x[stack.permutations[k].row_map]  # gather = inverse of the scatter
        x = sample_flow(x, cond_of(k), stack.nets[k], stats)
    return x


def stack_forward(z, cond, stack: FlowStack, stats: SynthStats | None = None) -> np.ndarray:
    """Latent -> grid: exact inverse of stack_inverse's transform (naive engine)."""
    return sample_walk(z, cond, stack, flow_forward, stats)


# ---------------------------------------------------------------------------
# 1-D reference transform (equivalence oracle for the degenerate h = n grid)


def af_reference_inverse(x: np.ndarray, mu_sigma) -> tuple[np.ndarray, float]:
    """Fully autoregressive density direction over a 1-D signal.

    mu_sigma(prefix) -> (mu_t, sigma_t) sees only samples before t. Returns
    (z, log_det) with z[t] = x[t] * sigma_t + mu_t.
    """
    x = np.asarray(x, dtype=np.float64)
    z = np.empty_like(x)
    log_det = 0.0
    for t in range(len(x)):
        mu_t, sigma_t = mu_sigma(x[:t])
        z[t] = x[t] * sigma_t + mu_t
        log_det += np.log(sigma_t)
    return z, float(log_det)
