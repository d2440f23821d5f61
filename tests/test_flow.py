"""Flow transforms: triangularity, determinants, inversion, and the 1-D
reference equivalences for degenerate grid shapes.

The 1-D evaluators (oracle_refs) are explicit per-position loops over the
raw weight arrays, sharing nothing with the conv-stack forward pass, so
agreement between the two routes is evidence, not tautology.
"""

import tracemalloc

import numpy as np
import pytest
from oracle_refs import (
    af_reference_forward,
    bipartite_as_autoregressive,
    bipartite_reference,
    bipartite_reference_forward,
    eval_net_cols_1d,
    eval_net_rows_1d,
    fd_jacobian,
    rigged_net,
    shift_down,
)

from gridflow.errors import NumericalError
from gridflow.flow import (
    FlowStack,
    af_reference_inverse,
    flow_forward,
    flow_inverse,
    stack_forward,
    stack_inverse,
    stack_loglik_terms,
)
from gridflow.network import init_conv_net, net_forward
from gridflow.signal import (
    bipartite_reverse_permutation,
    identity_permutation,
    reverse_permutation,
    squeeze,
    unsqueeze,
)

LOG_2PI = np.log(2 * np.pi)


class TestSingleFlow:
    def test_affine_form(self):
        # z = sigma * x + mu with (mu, sigma) frozen under the change of x[i,j]
        net = rigged_net(0)
        x = np.random.default_rng(1).standard_normal((6, 4))
        z, _ = flow_inverse(x, None, net)
        mu, ls = net_forward(shift_down(x), None, net)
        assert np.abs(z - (np.exp(ls) * x + mu)).max() <= 1e-12

    def test_log_det_is_sum_log_sigma(self):
        net = rigged_net(2)
        x = np.random.default_rng(3).standard_normal((4, 5))
        z, log_det = flow_inverse(x, None, net)

        def tf(flat):
            zz, _ = flow_inverse(flat.reshape(4, 5), None, net)
            return zz.reshape(-1)

        jac = fd_jacobian(tf, x)
        _, logabs = np.linalg.slogdet(jac)
        assert abs(logabs - float(log_det)) / abs(logabs) <= 1e-5

    def test_jacobian_triangular_diag_sigma(self):
        h, w = 8, 8
        net = rigged_net(4)
        x = np.random.default_rng(5).standard_normal((h, w))

        def tf(flat):
            zz, _ = flow_inverse(flat.reshape(h, w), None, net)
            return zz.reshape(-1)

        jac = fd_jacobian(tf, x)
        # row-major flattening: entry (i,j) -> i*w + j
        upper = np.triu(jac, k=1)
        assert np.abs(upper).max() <= 1e-6
        _, ls = net_forward(shift_down(x), None, net)
        sigma = np.exp(ls).reshape(-1)
        assert np.abs(np.diag(jac) - sigma).max() <= 1e-6

    def test_same_row_entries_decoupled(self):
        # dZ[i,j]/dX[i,j'] = 0 for j != j': within a row the map is elementwise
        net = rigged_net(6)
        h, w = 4, 6
        x = np.random.default_rng(7).standard_normal((h, w))

        def tf(flat):
            zz, _ = flow_inverse(flat.reshape(h, w), None, net)
            return zz.reshape(-1)

        jac = fd_jacobian(tf, x)
        for i in range(h):
            block = jac[i * w : (i + 1) * w, i * w : (i + 1) * w]
            off_diag = block - np.diag(np.diag(block))
            assert np.abs(off_diag).max() <= 1e-8

    def test_row_by_row_inversion(self):
        net = rigged_net(8)
        z = np.random.default_rng(9).standard_normal((8, 4))
        x = flow_forward(z, None, net)
        z_back, _ = flow_inverse(x, None, net)
        assert np.abs(z_back - z).max() <= 1e-10

    def test_non_finite_abort_names_location(self):
        net = rigged_net(10)
        net.out_head.data[0, 0, 0, 0] = np.inf
        x = np.random.default_rng(11).standard_normal((4, 4))
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalError, match=r"in flow 3 at grid row \d+, column \d+"):
                flow_inverse(x, None, net, flow=3)


class TestStack:
    def _stack(self, h, n_flows, seed, perm="reverse"):
        nets = [rigged_net(seed + k, channels=3, layers=2) for k in range(n_flows)]
        if perm == "reverse":
            perms = [reverse_permutation(h) for _ in range(n_flows)]
        elif perm == "mix":
            perms = [
                reverse_permutation(h) if k % 2 == 0 else bipartite_reverse_permutation(h)
                for k in range(n_flows)
            ]
        else:
            perms = [identity_permutation(h) for _ in range(n_flows)]
        return FlowStack(nets=nets, permutations=perms)

    @pytest.mark.parametrize("h,n_flows,perm", [(4, 1, "reverse"), (8, 3, "mix"), (2, 4, "reverse")])
    def test_round_trip(self, h, n_flows, perm):
        stack = self._stack(h, n_flows, 20, perm)
        x = np.random.default_rng(21).standard_normal((h, 6))
        z, _ = stack_inverse(x, None, stack)
        back = stack_forward(z, None, stack)
        assert np.abs(back - x).max() <= 1e-10

    @pytest.mark.parametrize("grid", [(4, 6), (6, 6)])
    def test_two_flow_log_det_vs_jacobian(self, grid):
        h, w = grid
        stack = self._stack(h, 2, 30, "mix" if h % 2 == 0 else "reverse")
        x0 = np.random.default_rng(31).standard_normal((h, w))

        def tf(flat):
            z, _ = stack_inverse(flat.reshape(h, w), None, stack)
            return z.reshape(-1)

        jac = fd_jacobian(tf, x0)
        _, logabs = np.linalg.slogdet(jac)
        _, report = stack_inverse(x0, None, stack)
        rel = abs(logabs - report.log_det) / max(abs(logabs), 1e-12)
        assert rel <= 1e-5, f"analytic {report.log_det} vs FD {logabs}"

    def test_permutations_leave_log_det_unchanged(self):
        # |det| of a row permutation is 1: reports agree across strategies
        net_seed = 40
        x = np.random.default_rng(41).standard_normal((8, 4))
        for perm in ("none", "reverse", "mix"):
            stack = self._stack(8, 1, net_seed, perm)
            _, report = stack_inverse(x, None, stack)
            if perm == "none":
                base = report.log_det
            else:
                assert abs(report.log_det - base) <= 1e-12

    def test_identity_model_closed_form(self):
        nets = [
            init_conv_net(4, 2, rng=np.random.default_rng(50), dtype=np.float64)
            for _ in range(2)
        ]
        stack = FlowStack(nets=nets, permutations=[reverse_permutation(8)] * 2)
        x = np.random.default_rng(51).standard_normal((8, 8))
        _, report = stack_inverse(x, None, stack)
        expect = -0.5 * LOG_2PI - (x**2).mean() / 2.0
        assert report.log_det == 0.0
        assert abs(report.per_dim - expect) <= 1e-12

    def test_report_totals(self):
        stack = self._stack(4, 2, 60)
        x = np.random.default_rng(61).standard_normal((4, 4))
        _, report = stack_inverse(x, None, stack)
        assert report.n_dims == 16
        assert abs(report.total - (report.log_det + report.base_term)) <= 1e-12
        assert abs(report.per_dim - report.total / 16) <= 1e-15


class TestSavedEntries:
    def test_no_conditioner_copy_per_flow(self):
        # a conditioned two-flow stack in fp64 on a 4 x 256 grid, R = 2, one
        # layer: per flow the entries keep the shifted rows, x and sigma
        # (3 h w values), the gates (2 R h w), the last input and the skip sum
        # (2 R h w), 88 KiB; 190 KiB are held in all. Each flow's gather of
        # the 64-band grid adds 512 KiB: 1,215 KiB when the entries kept it
        h, w, m = 4, 256, 64
        rng = np.random.default_rng(50)
        nets = [init_conv_net(2, 1, cond_channels=m, rng=rng, dtype=np.float64) for _ in "ab"]
        stack = FlowStack(nets, [reverse_permutation(h)] * 2)
        x, cond = rng.standard_normal((h, w)), rng.standard_normal((m, h, w))
        saved = []
        tracemalloc.start()
        try:
            stack_loglik_terms(x, cond, stack, saved)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= cond.nbytes // 2


class TestAutoregressiveReference:
    def test_rigged_linear_example(self):
        # mu_t = 0.5 * x_{t-1}, sigma = 1: z is x plus half its lag
        x = np.array([1.0, 2.0, 3.0, 4.0])

        def mu_sigma(prefix):
            return (0.5 * prefix[-1] if len(prefix) else 0.0), 1.0

        z, log_det = af_reference_inverse(x, mu_sigma)
        assert np.allclose(z, [1.0, 2.5, 4.0, 5.5])
        assert log_det == 0.0
        back = af_reference_forward(z, mu_sigma)
        assert np.allclose(back, x)

    def test_round_trip_nonlinear(self):
        rng = np.random.default_rng(70)
        x = rng.standard_normal(12)

        def mu_sigma(prefix):
            if not len(prefix):
                return 0.0, 1.0
            return np.tanh(prefix.sum()), np.exp(0.1 * np.cos(prefix[-1]))

        z, _ = af_reference_inverse(x, mu_sigma)
        assert np.abs(af_reference_forward(z, mu_sigma) - x).max() <= 1e-12

    def test_degenerate_grid_matches_reference(self):
        # h = n, width 1: the flow IS the sample-level autoregressive model
        n = 16
        net = rigged_net(71, channels=3, layers=3, kernel_w=1, dil_h=[1, 2, 1], dil_w=[1, 1, 1])
        x = np.random.default_rng(72).standard_normal(n)
        grid = squeeze(x, n)  # (n, 1) column
        z_flow, log_det_flow = flow_inverse(grid, None, net)

        def mu_sigma(prefix):
            rows = np.zeros(n)
            rows[1 : len(prefix) + 1] = prefix  # shifted column
            mu, ls = eval_net_rows_1d(net, rows)
            t = len(prefix)
            return mu[t], np.exp(ls[t])

        z_ref, log_det_ref = af_reference_inverse(x, mu_sigma)
        assert np.abs(z_flow[:, 0] - z_ref).max() <= 1e-6
        assert abs(float(log_det_flow) - log_det_ref) <= 1e-6
        # and the sampling direction agrees too
        x_flow = flow_forward(squeeze(z_ref, n), None, net)
        x_ref = af_reference_forward(z_ref, mu_sigma)
        assert np.abs(x_flow[:, 0] - x_ref).max() <= 1e-6


class TestBipartiteReference:
    def test_worked_example(self):
        x_a = np.array([1.0, 2.0])
        x_b = np.array([3.0, 4.0])

        def mu_sigma_b(a):
            return 0.1 * a, np.exp(0.5 * np.ones_like(a))

        z_a, z_b, log_det = bipartite_reference(x_a, x_b, mu_sigma_b)
        assert np.array_equal(z_a, x_a)
        assert np.allclose(z_b, x_b * np.exp(0.5) + 0.1 * x_a)
        assert abs(log_det - 1.0) <= 1e-12
        back_a, back_b = bipartite_reference_forward(z_a, z_b, mu_sigma_b)
        assert np.allclose(back_a, x_a) and np.allclose(back_b, x_b)

    def test_degenerate_grid_matches_reference(self):
        # h = 2, height kernel 1, zero biases: row 0 passes through untouched
        # and row 1 is the coupling over the even samples
        n = 16
        net = rigged_net(80, channels=3, layers=2, kernel_h=1, dil_h=[1, 1], dil_w=[1, 2])
        x = np.random.default_rng(81).standard_normal(n)
        grid = squeeze(x, 2)  # row 0 = even samples, row 1 = odd samples
        x_a, x_b = grid[0], grid[1]
        z_flow, log_det_flow = flow_inverse(grid, None, net)

        def mu_sigma_b(a):
            mu, ls = eval_net_cols_1d(net, a)
            return mu, np.exp(ls)

        z_a_ref, z_b_ref, log_det_ref = bipartite_reference(x_a, x_b, mu_sigma_b)
        assert np.abs(z_flow[0] - z_a_ref).max() <= 1e-6  # identity half
        assert np.abs(z_flow[1] - z_b_ref).max() <= 1e-6
        assert abs(float(log_det_flow) - log_det_ref) <= 1e-6
        x_flow = flow_forward(z_flow, None, net)
        assert np.abs(x_flow - grid).max() <= 1e-10

    def test_reduction_to_autoregressive(self):
        # the coupling written as a constrained sample-by-sample rule
        rng = np.random.default_rng(82)
        x_a = rng.standard_normal(3)
        x_b = rng.standard_normal(3)

        def mu_sigma_b(a):
            return np.sin(a), np.exp(0.2 * np.tanh(a))

        z_a, z_b, log_det = bipartite_reference(x_a, x_b, mu_sigma_b)
        reduced = bipartite_as_autoregressive(3, mu_sigma_b)
        z_seq, log_det_seq = af_reference_inverse(np.concatenate([x_a, x_b]), reduced)
        assert np.abs(z_seq[:3] - z_a).max() <= 1e-12
        assert np.abs(z_seq[3:] - z_b).max() <= 1e-12
        assert abs(log_det - log_det_seq) <= 1e-12

    def test_jacobian_sparsity_strict_subset(self):
        # the reduced rule's dependency pattern is a strict subset of a full
        # autoregressive rule's on the same ordering
        n_a = 3
        x = np.random.default_rng(83).standard_normal(6)

        def mu_sigma_b(a):
            return 0.3 * np.tanh(a), np.exp(0.1 * a)

        reduced = bipartite_as_autoregressive(n_a, mu_sigma_b)

        def full_rule(prefix):
            if not len(prefix):
                return 0.0, 1.0
            return 0.3 * np.tanh(prefix.sum()), np.exp(0.1 * prefix[-1])

        def tf(rule):
            def f(flat):
                z, _ = af_reference_inverse(flat, rule)
                return z

            return f

        jac_red = fd_jacobian(tf(reduced), x)
        jac_full = fd_jacobian(tf(full_rule), x)
        nz_red = np.abs(jac_red) > 1e-9
        nz_full = np.abs(jac_full) > 1e-9
        assert np.all(nz_red <= nz_full)  # subset
        assert nz_red.sum() < nz_full.sum()  # strictly smaller


class TestGridLayoutEndToEnd:
    def test_unsqueeze_of_transformed_grid(self):
        # whole pipeline keeps sample order: squeeze, flow, inverse, unsqueeze
        net = rigged_net(90)
        x = np.random.default_rng(91).standard_normal(32)
        grid = squeeze(x, 8)
        z, _ = flow_inverse(grid, None, net)
        back = flow_forward(z, None, net)
        assert np.abs(unsqueeze(back) - x).max() <= 1e-10
