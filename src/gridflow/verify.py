"""Built-in self-checks: invertibility, determinants, causality, oracles.

Each check returns (name, passed, detail). The fast level is a smoke pass
that finishes in well under a minute; full widens the sweeps and adds the
brute-force Jacobian comparisons on bigger grids. These overlap the test
suite on purpose: they run from an installed package with no test files
around.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import NumericalError
from .flow import (
    FlowStack,
    SynthStats,
    flow_inverse,
    stack_forward,
    stack_inverse,
)
from .io import ModelConfig
from .model import build_model, cast_model, grid_nll
from .network import default_dilations, init_conv_net, net_forward, receptive_field
from .signal import (
    bipartite_reverse_permutation,
    reverse_permutation,
    squeeze,
    unsqueeze,
)
from .synth import synth_queued


def _tiny_config(h, n_flows, channels=4, layers=8, conditioned=False, strategy="auto"):
    return ModelConfig(
        height=h,
        n_flows=n_flows,
        n_layers=layers,
        residual_channels=channels,
        conditioned=conditioned,
        permutation_strategy=strategy,
    )


def check_squeeze_round_trip() -> tuple[str, bool, str]:
    """squeeze/unsqueeze invert each other for every h dividing the length."""
    rng = np.random.default_rng(0)
    for n in range(1, 33):
        x = rng.standard_normal(n)
        for h in range(1, n + 1):
            if n % h:
                continue
            if not np.array_equal(unsqueeze(squeeze(x, h)), x):
                return "squeeze_round_trip", False, f"mismatch at n={n}, h={h}"
    return "squeeze_round_trip", True, "all divisors of lengths 1..32"


def check_permutations() -> tuple[str, bool, str]:
    """Row maps match the fixed forms and the mixed kinds are involutions."""
    rev8 = reverse_permutation(8).row_map.tolist()
    bprev8 = bipartite_reverse_permutation(8).row_map.tolist()
    if rev8 != [7, 6, 5, 4, 3, 2, 1, 0]:
        return "permutations", False, f"reverse h=8 gave {rev8}"
    if bprev8 != [3, 2, 1, 0, 7, 6, 5, 4]:
        return "permutations", False, f"half-reverse h=8 gave {bprev8}"
    for h in (2, 4, 8, 16):
        for perm in (reverse_permutation(h), bipartite_reverse_permutation(h)):
            twice = perm.row_map[perm.row_map]
            if not np.array_equal(twice, np.arange(h)):
                return "permutations", False, f"{perm.kind} h={h} not an involution"
    return "permutations", True, "fixed maps and involutions"


def _rig_moderate(model, rng) -> None:
    """Moderate random weights, so that every flow moves the data.

    A fresh model's zero head makes every flow the identity, and the 0.05
    init scale keeps the rest close to it. These scales keep sigma in a band
    around 1, so inversion error stays bounded through deep stacks.
    """

    def set_weight(nw, arr):
        nw.v.data = arr.astype(model.dtype)
        if nw.g is not None:  # g = ||v|| makes the normed weight equal v
            axes = tuple(range(1, arr.ndim))
            nw.g.data = np.sqrt((arr**2).sum(axis=axes)).astype(model.dtype)

    for net in model.stack.nets:
        set_weight(net.input_proj, rng.standard_normal(net.input_proj.v.data.shape) * 0.7)
        for layer in net.layers:
            for nw in (layer.filter, layer.res_proj, layer.skip_proj):
                set_weight(nw, rng.standard_normal(nw.v.data.shape) * 0.3)
        head = np.abs(rng.standard_normal(net.skip_head.v.data.shape)) * 0.5 + 0.1
        set_weight(net.skip_head, head)
        net.out_head.data = (rng.standard_normal(net.out_head.data.shape) * 0.15).astype(
            model.dtype
        )
        net.out_head_bias.data = np.array([0.1, -0.05], dtype=model.dtype)


def check_flow_round_trip(seeds=5, fp64=True) -> tuple[str, bool, str]:
    """stack_forward inverts stack_inverse on random grids."""
    worst = 0.0
    for h, n_flows in ((2, 4), (8, 4), (16, 2)):
        model = build_model(_tiny_config(h, n_flows), seed=7)
        if fp64:
            cast_model(model, np.float64)
        _rig_moderate(model, np.random.default_rng(8))
        for seed in range(seeds):
            rng = np.random.default_rng(100 + seed)
            x = rng.standard_normal((h, 8)).astype(model.dtype)
            z, _ = stack_inverse(x, None, model.stack)
            back = stack_forward(z, None, model.stack)
            worst = max(worst, float(np.max(np.abs(back - x))))
    tol = 1e-9 if fp64 else 1e-4
    return (
        "flow_round_trip",
        worst <= tol,
        f"max |x - f(f^-1(x))| = {worst:.3e} (tol {tol:.0e})",
    )


def check_log_det(grid=(4, 4), n_flows=2) -> tuple[str, bool, str]:
    """Summed log-scales match the brute-force Jacobian determinant."""
    h, w = grid
    model = build_model(_tiny_config(h, n_flows, strategy="reverse"), seed=3)
    cast_model(model, np.float64)
    rng = np.random.default_rng(5)
    _rig_moderate(model, rng)
    x0 = rng.standard_normal((h, w))

    def transform(flat):
        z, _ = stack_inverse(flat.reshape(h, w), None, model.stack)
        return z.reshape(-1)

    n = h * w
    eps = 1e-6
    jac = np.empty((n, n))
    flat0 = x0.reshape(-1)
    for j in range(n):
        dp = flat0.copy()
        dm = flat0.copy()
        dp[j] += eps
        dm[j] -= eps
        jac[:, j] = (transform(dp) - transform(dm)) / (2 * eps)
    _, logabsdet = np.linalg.slogdet(jac)
    _, report = stack_inverse(x0, None, model.stack)
    rel = abs(logabsdet - report.log_det) / max(abs(logabsdet), 1e-12)
    return (
        "log_det",
        rel <= 1e-5,
        f"{h}x{w}, {n_flows} flows: analytic {report.log_det:.8f} vs jacobian "
        f"{logabsdet:.8f} (rel {rel:.2e})",
    )


def check_causality(h=16, w=8) -> tuple[str, bool, str]:
    """Output rows never react to same-row or below-row input changes."""
    net = init_conv_net(4, 8, dilations_h=default_dilations(h), rng=np.random.default_rng(2), dtype=np.float64)
    # nonzero head so mu/log_sigma actually move
    net.out_head.data = np.random.default_rng(3).standard_normal(net.out_head.data.shape) * 0.1
    rng = np.random.default_rng(4)
    x = rng.standard_normal((h, w))
    z0, _ = flow_inverse(x, None, net)
    worst = 0.0
    for i in (0, h // 2, h - 1):
        bumped = x.copy()
        bumped[i, :] += 0.5
        z1, _ = flow_inverse(bumped, None, net)
        delta = np.abs(z1 - z0)
        delta[i:, :] = 0.0  # rows >= i may change; rows above must not
        worst = max(worst, float(delta.max()))
    return "causality", worst <= 1e-6, f"max above-row leak {worst:.3e}"


def check_receptive_field() -> tuple[str, bool, str]:
    """Formula and measured impulse response agree for the standard schedules."""
    for h, expect in ((8, 17), (16, 17), (32, 35), (64, 77)):
        dil = default_dilations(h)
        r = receptive_field(3, dil)
        if r != expect:
            return "receptive_field", False, f"h={h}: formula gave {r}, expected {expect}"
    dil = default_dilations(8)
    measured = measure_height_reach(dil)
    if measured != 17:
        return "receptive_field", False, f"h=8 impulse spans {measured} rows, expected 17"
    return "receptive_field", True, "schedules for h in {8,16,32,64}; impulse h=8"


def measure_height_reach(dilations_h, channels=2) -> int:
    """Rows of the output influenced by one input row, measured numerically."""
    n_layers = len(dilations_h)
    r = receptive_field(3, dilations_h)
    h = r + 7
    net = init_conv_net(
        channels,
        n_layers,
        dilations_h=dilations_h,
        dilations_w=[1] * n_layers,
        rng=np.random.default_rng(11),
        dtype=np.float64,
        weight_norm=False,
    )
    _rig_positive(net, 0.3)
    x = np.zeros((h, 2))
    mu0, _ = net_forward(x, None, net)
    bumped = x.copy()
    bumped[0, :] += 1e-3
    mu1, _ = net_forward(bumped, None, net)
    moved = np.where(np.abs(mu1 - mu0).max(axis=1) > 1e-12)[0]
    return int(moved.max() - moved.min() + 1) if len(moved) else 0


def _rig_positive(net, scale) -> None:
    """Constant positive weights so sensitivities cannot cancel."""
    for layer in net.layers:
        layer.filter.v.data = np.full_like(layer.filter.v.data, scale)
        layer.res_proj.v.data = np.full_like(layer.res_proj.v.data, scale)
        layer.skip_proj.v.data = np.full_like(layer.skip_proj.v.data, scale)
    net.input_proj.v.data = np.full_like(net.input_proj.v.data, scale)
    net.skip_head.v.data = np.full_like(net.skip_head.v.data, scale)
    net.out_head.data = np.full_like(net.out_head.data, scale)


def check_gradients() -> tuple[str, bool, str]:
    """grid_nll's hand-written gradients match central differences on a micro model."""
    model = build_model(
        ModelConfig(
            height=4,
            n_flows=1,
            n_layers=2,
            residual_channels=2,
            conditioned=False,
            permutation_strategy="reverse",
        ),
        seed=9,
    )
    cast_model(model, np.float64)
    # strengthen weights and push biases off the relu kinks: at the 0.05
    # init scale the deep-path sensitivities sit at the finite-difference
    # noise floor, and exactly-zero head biases straddle the kink
    rig = np.random.default_rng(10)
    net = model.stack.nets[0]
    for layer in net.layers:
        layer.filter.v.data = rig.standard_normal(layer.filter.v.data.shape) * 0.4
        layer.res_proj.v.data = rig.standard_normal(layer.res_proj.v.data.shape) * 0.4
        layer.skip_proj.v.data = rig.standard_normal(layer.skip_proj.v.data.shape) * 0.4
        layer.bias.data = rig.standard_normal(layer.bias.data.shape) * 0.1
    net.skip_head.v.data = np.abs(rig.standard_normal(net.skip_head.v.data.shape)) + 0.2
    net.skip_head_bias.data = rig.standard_normal(net.skip_head_bias.data.shape) * 0.1
    net.out_head.data = rig.standard_normal(net.out_head.data.shape) * 0.3
    net.out_head_bias.data = rig.standard_normal(net.out_head_bias.data.shape) * 0.1
    rng = np.random.default_rng(13)
    x = rng.standard_normal((4, 6))
    params = model.parameters()

    def loss_fn():
        return grid_nll(model, x, None)

    loss, tape = ad.record_forward(loss_fn, params)
    grads = ad.backward(tape)
    worst = -np.inf
    eps = 1e-6
    for p in params:
        flat = p.data.reshape(-1)
        for idx in range(0, flat.size, max(1, flat.size // 3)):
            orig = flat[idx]
            flat[idx] = orig + eps
            lp = loss_fn().data
            flat[idx] = orig - eps
            lm = loss_fn().data
            flat[idx] = orig
            fd = (lp - lm) / (2 * eps)
            an = grads[p.name].reshape(-1)[idx]
            # rel-or-abs: the absolute guard covers near-zero sensitivities
            # where central differences bottom out around 1e-10
            excess = abs(fd - an) - (1e-8 + 1e-4 * max(abs(fd), abs(an)))
            worst = max(worst, excess)
    return "gradients", worst <= 0.0, f"worst tolerance excess {worst:.3e} (spot-checked)"


def check_queue_equivalence() -> tuple[str, bool, str]:
    """Queued synthesis reproduces the naive engine, conditioner folded in."""
    model = build_model(_tiny_config(16, 2, conditioned=True), seed=21)
    cast_model(model, np.float64)
    _rig_moderate(model, np.random.default_rng(22))
    rng = np.random.default_rng(23)
    z = rng.standard_normal((16, 8))
    cond = rng.standard_normal((model.config.mel.n_mels, 16, 8))
    naive = stack_forward(z, cond, model.stack)
    stats = SynthStats()
    queued = synth_queued(z, cond, model.stack, stats=stats)
    err = float(np.max(np.abs(naive - queued)))
    steps_ok = stats.row_steps == model.stack.n_flows * 16
    return (
        "queue_equivalence",
        err <= 1e-5 and steps_ok,
        f"max diff {err:.3e}; row steps {stats.row_steps}",
    )


def check_special_cases() -> tuple[str, bool, str]:
    """Degenerate grids match the 1-D reference transforms (see tests for depth)."""
    from .flow import af_reference_inverse

    n = 8
    net = init_conv_net(
        2,
        2,
        kernel_w=1,
        dilations_h=[1, 2],
        dilations_w=[1, 1],
        rng=np.random.default_rng(31),
        dtype=np.float64,
        weight_norm=False,
    )
    net.out_head.data = np.random.default_rng(32).standard_normal((2, 2, 1, 1)) * 0.2
    x = np.random.default_rng(33).standard_normal(n)
    z, _ = flow_inverse(squeeze(x, n), None, net)

    def mu_sigma(prefix):
        t = len(prefix)
        col = np.zeros((n, 1))
        col[:t, 0] = prefix
        mu, ls = net_forward(np.vstack([np.zeros((1, 1)), col[:-1]]), None, net)
        return float(mu[t, 0]), float(np.exp(ls[t, 0]))

    z_ref, _ = af_reference_inverse(x, mu_sigma)
    err = float(np.max(np.abs(z[:, 0] - z_ref)))
    return "special_cases", err <= 1e-6, f"h=n vs sample-by-sample reference: {err:.3e}"


FAST_CHECKS = [
    check_squeeze_round_trip,
    check_permutations,
    check_receptive_field,
    check_causality,
    check_flow_round_trip,
    check_log_det,
    check_gradients,
    check_queue_equivalence,
    check_special_cases,
]


def run_checks(level: str = "fast"):
    """Run the suite; returns (all_passed, results list)."""
    results = []
    for fn in FAST_CHECKS:
        try:
            results.append(fn())
        except (AssertionError, NumericalError, ValueError) as e:
            results.append((fn.__name__, False, f"raised {type(e).__name__}: {e}"))
    if level == "full":
        results.append(check_log_det((6, 6), 2))
        results.append(_full_round_trip())
        results.append(_full_reach())
    ok = all(r[1] for r in results)
    return ok, results


def _full_round_trip():
    name = "flow_round_trip_full"
    worst = 0.0
    for h in (2, 8, 16):
        for n_flows in (1, 4, 8):
            model = build_model(_tiny_config(h, n_flows), seed=50 + h + n_flows)
            cast_model(model, np.float64)
            _rig_moderate(model, np.random.default_rng(60 + h + n_flows))
            for seed in range(10):
                rng = np.random.default_rng(1000 + seed)
                x = rng.standard_normal((h, 8))
                z, _ = stack_inverse(x, None, model.stack)
                back = stack_forward(z, None, model.stack)
                worst = max(worst, float(np.max(np.abs(back - x))))
    return name, worst <= 1e-9, f"max error {worst:.3e} over h x flows sweep"


def _full_reach():
    name = "receptive_field_full"
    for h, expect in ((16, 17), (32, 35), (64, 77)):
        measured = measure_height_reach(default_dilations(h))
        if measured != expect:
            return name, False, f"h={h}: measured {measured}, expected {expect}"
    return name, True, "impulse responses for h in {16,32,64}"
