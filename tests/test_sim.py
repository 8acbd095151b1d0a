import io

import numpy as np
import pytest
import scipy.linalg

from conftest import random_model, random_partial_model, random_sc_digraph
from observer_kit import sim
from observer_kit.decomp import SystemModel
from observer_kit.errors import DimensionError, DivergenceError, InsufficientDataError
from observer_kit.graph import Digraph, balance
from observer_kit.numerics import spectral_norm
from observer_kit.sim import (
    SimulationConfig,
    SimulationTrace,
    estimate_decay_rate,
    integrate,
    rhs,
    write_csv,
)
from observer_kit.synth import NodeGains, ObserverDesign, SynthesisParams, synthesize
from observer_kit import verify
from observer_kit.verify import build_global_error_matrix

UNIT_2CYCLE = Digraph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)])
SINGLE_NODE = Digraph(np.zeros((1, 1)))


def scalar_design(l, m, gamma, alpha=1.0, n_nodes=1):
    node = NodeGains(L=np.array([[l]]), M=np.array([[m]]), v=1)
    return ObserverDesign(
        gamma=gamma, epsilon=0.9, alpha=alpha, r=np.ones(n_nodes),
        nodes=(node,) * n_nodes,
    )


def probed_field(model, g_net, design):
    """Matrix F with rhs(z) = F z, found by applying rhs to the identity."""
    return rhs(np.eye(model.n * (model.node_count + 1)), model, g_net, design)


def trace_from_norm(times, values):
    e = np.asarray(values, dtype=float)
    return SimulationTrace(
        times=np.asarray(times, dtype=float),
        x=np.zeros((len(times), 1)),
        xhat=np.zeros((len(times), 1, 1)),
        e_norms=e[:, None],
        e_global=e,
        fitted_rate=None,
    )


class TestRhs:
    def test_error_free_relation_is_invariant(self):
        rng = np.random.default_rng(0)
        model = random_model(rng, 3, 2)
        design = synthesize(model, UNIT_2CYCLE, SynthesisParams(alpha=1.0))
        x = rng.normal(size=3)
        state = np.concatenate([x, x, x])  # every estimate equals the state
        deriv = rhs(state, model, UNIT_2CYCLE, design)
        expected = model.A @ x
        for block in range(3):
            assert np.allclose(deriv[3 * block : 3 * (block + 1)], expected)

    def test_scalar_innovation_only(self):
        model = SystemModel(A=[[0.0]], outputs=([[1.0]],))
        design = scalar_design(l=1.0, m=1.0, gamma=0.0)
        state = np.array([0.5, -0.25])
        deriv = rhs(state, model, SINGLE_NODE, design)
        # plant frozen, estimate relaxes toward the state at unit rate
        assert deriv[0] == 0.0
        assert deriv[1] == pytest.approx(0.5 - (-0.25))

    def test_coupling_only_matches_error_system(self):
        # zero plant and zero injection: observer stack runs on pure coupling
        rng = np.random.default_rng(1)
        N, n = 3, 2
        g_net = random_sc_digraph(rng, N)
        model = SystemModel(A=np.zeros((n, n)), outputs=(np.zeros((1, n)),) * N)
        bal = balance(g_net)
        nodes = []
        rng2 = np.random.default_rng(2)
        for _ in range(N):
            B = rng2.normal(size=(n, n))
            M = B @ B.T + n * np.eye(n)
            nodes.append(NodeGains(L=np.zeros((n, 1)), M=M, v=0))
        design = ObserverDesign(
            gamma=1.7, epsilon=0.9, alpha=1.0, r=bal.r, nodes=tuple(nodes)
        )
        F = probed_field(model, g_net, design)
        E = build_global_error_matrix(model, bal, design).E
        assert np.allclose(F[n:, n:], E, atol=1e-12)
        assert np.allclose(F[n:, :n], 0.0)

    def test_batched_state_matches_column_by_column(self):
        rng = np.random.default_rng(12)
        model = random_model(rng, 3, 4)
        g_net = random_sc_digraph(rng, 4)
        design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
        dim = 3 * 5
        batch = rng.normal(size=(dim, 6))
        got = rhs(batch, model, g_net, design)
        assert got.shape == batch.shape
        for k in range(batch.shape[1]):
            expected = rhs(batch[:, k], model, g_net, design)
            scale = np.max(np.abs(expected))
            assert np.allclose(got[:, k], expected, rtol=1e-12, atol=1e-12 * scale)
        with pytest.raises(DimensionError):
            rhs(np.zeros(dim + 1), model, g_net, design)
        with pytest.raises(DimensionError):
            rhs(np.zeros((dim + 1, 2)), model, g_net, design)
        with pytest.raises(DimensionError):
            rhs(np.zeros((dim, 2, 2)), model, g_net, design)

    def test_error_coordinates_match_unit_vector_probe(self):
        # integrate steps y = (x, e) with the field blockdiag(A, E); in the
        # coordinates z = (x, 1 (x) x + e) that is the field of rhs
        rng = np.random.default_rng(13)
        model = random_model(rng, 3, 3)
        g_net = random_sc_digraph(rng, 3)
        design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
        dim = 3 * 4
        probe = np.column_stack([rhs(e, model, g_net, design) for e in np.eye(dim)])
        to_z = np.eye(dim)
        to_z[3:, :3] = np.tile(np.eye(3), (3, 1))
        field = np.linalg.solve(to_z, probe @ to_z)
        E = build_global_error_matrix(model, balance(g_net), design).E
        expected = scipy.linalg.block_diag(model.A, E)
        assert np.allclose(field, expected, rtol=1e-12, atol=1e-12 * np.max(np.abs(probe)))


class TestIntegrate:
    def test_builds_error_system_once_and_never_probes_rhs(self, monkeypatch):
        rng = np.random.default_rng(4)
        model = random_model(rng, 3, 3)
        g_net = random_sc_digraph(rng, 3)
        design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
        calls = {"build": 0, "rhs": 0}
        real_build, real_rhs = verify.build_global_error_matrix, sim.rhs

        def build_spy(*args, **kwargs):
            calls["build"] += 1
            return real_build(*args, **kwargs)

        def rhs_spy(*args, **kwargs):
            calls["rhs"] += 1
            return real_rhs(*args, **kwargs)

        monkeypatch.setattr(verify, "build_global_error_matrix", build_spy)
        monkeypatch.setattr(sim, "rhs", rhs_spy)
        integrate(SimulationConfig(t_final=0.1, seed=0), model, g_net, design)
        assert calls == {"build": 1, "rhs": 0}

    def test_zero_initial_error_stays_zero(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 2, 2)
        design = synthesize(model, UNIT_2CYCLE, SynthesisParams(alpha=1.0))
        x0 = np.array([0.3, -0.8])
        config = SimulationConfig(
            t_final=1.0, dt=1e-3, x0=x0, xhat0=np.tile(x0, (2, 1)), seed=0
        )
        with pytest.warns(UserWarning, match="error norm hit zero"):
            trace = integrate(config, model, UNIT_2CYCLE, design)
        assert np.max(trace.e_global) <= 1e-12

    def test_scalar_closed_form(self):
        model = SystemModel(A=[[0.0]], outputs=([[1.0]],))
        design = scalar_design(l=1.0, m=1.0, gamma=0.0)
        config = SimulationConfig(
            t_final=5.0, dt=1e-3, x0=[0.0], xhat0=[[1.0]], seed=0,
            fit_window=(0.5, 4.5),
        )
        trace = integrate(config, model, SINGLE_NODE, design)
        assert np.allclose(
            trace.e_global, np.exp(-trace.times), atol=1e-6, rtol=1e-6
        )
        assert trace.fitted_rate == pytest.approx(1.0, abs=1e-6)

    def test_synthesized_design_decays_at_rate(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, 3, 3)
        g_net = random_sc_digraph(rng, 3)
        design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
        config = SimulationConfig(t_final=8.0, dt=1e-3, seed=11, record_stride=10)
        trace = integrate(config, model, g_net, design)
        e0 = trace.e_global[0]
        assert trace.e_global[-1] <= 10.0 * e0 * np.exp(-1.0 * 8.0)

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, 2, 2)
        design = synthesize(model, UNIT_2CYCLE, SynthesisParams(alpha=1.0))
        config = SimulationConfig(
            t_final=1.0, dt=1e-3, seed=17, record_stride=1000
        )
        trace = integrate(config, model, UNIT_2CYCLE, design)
        E = build_global_error_matrix(model, balance(UNIT_2CYCLE), design).E
        e0 = (trace.xhat[0] - trace.x[0]).ravel()
        exact = scipy.linalg.expm(E * 1.0) @ e0
        simulated = (trace.xhat[-1] - trace.x[-1]).ravel()
        rel = np.linalg.norm(simulated - exact) / np.linalg.norm(exact)
        assert rel <= 1e-5

    def test_error_system_equivalence(self):
        # integrating (x, xhat) and forming e matches integrating e directly
        rng = np.random.default_rng(6)
        model = random_model(rng, 2, 3)
        g_net = random_sc_digraph(rng, 3)
        design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
        dt = 1e-3
        config = SimulationConfig(t_final=1.0, dt=dt, seed=23, record_stride=1000)
        trace = integrate(config, model, g_net, design)
        E = build_global_error_matrix(model, balance(g_net), design).E
        e = (trace.xhat[0] - trace.x[0]).ravel()
        for _ in range(1000):
            k1 = E @ e
            k2 = E @ (e + 0.5 * dt * k1)
            k3 = E @ (e + 0.5 * dt * k2)
            k4 = E @ (e + dt * k3)
            e = e + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        simulated = (trace.xhat[-1] - trace.x[-1]).ravel()
        assert np.linalg.norm(simulated - e) <= 1e-8 * np.linalg.norm(e)

    def test_fourth_order_convergence(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, 2, 2)
        design = synthesize(model, UNIT_2CYCLE, SynthesisParams(alpha=1.0))
        E = build_global_error_matrix(model, balance(UNIT_2CYCLE), design).E
        norm = np.linalg.norm(E, 2)
        t_final = round(51.2 / norm, 6)
        errs = []
        for halvings in (0, 1):
            dt = t_final / (256 * 2**halvings)
            config = SimulationConfig(
                t_final=t_final, dt=dt, seed=29, record_stride=256 * 2**halvings
            )
            trace = integrate(config, model, UNIT_2CYCLE, design)
            e0 = (trace.xhat[0] - trace.x[0]).ravel()
            exact = scipy.linalg.expm(E * trace.times[-1]) @ e0
            got = (trace.xhat[-1] - trace.x[-1]).ravel()
            errs.append(np.linalg.norm(got - exact))
        ratio = errs[0] / errs[1]
        assert 12.0 <= ratio <= 20.0

    def test_divergence_reports_first_bad_step(self):
        # wrong-sign injection blows the estimate up past overflow
        model = SystemModel(A=[[0.0]], outputs=([[1.0]],))
        design = scalar_design(l=-100.0, m=1.0, gamma=0.0)
        config = SimulationConfig(
            t_final=20.0, dt=1e-2, x0=[0.0], xhat0=[[1.0]], seed=0
        )
        with pytest.warns(UserWarning, match="too\\s+coarse"):
            with pytest.raises(DivergenceError) as err:
                integrate(config, model, SINGLE_NODE, design)
        assert err.value.step is not None and err.value.step > 0

    def test_divergence_step_is_first_non_finite_state(self, monkeypatch):
        # the error grows by the RK4 factor 65/24 per step; (65/24)**713 is
        # the first power above the largest float, whatever the block length
        model = SystemModel(A=[[0.0]], outputs=([[1.0]],))
        design = scalar_design(l=-100.0, m=1.0, gamma=0.0)
        config = SimulationConfig(
            t_final=20.0, dt=1e-2, x0=[0.0], xhat0=[[1.0]], seed=0
        )
        for single_steps in (False, True):
            if single_steps:
                monkeypatch.setattr(sim, "_BLOCK", 1)
            with pytest.warns(UserWarning, match="too\\s+coarse"):
                with pytest.raises(DivergenceError) as err:
                    integrate(config, model, SINGLE_NODE, design)
            assert err.value.step == 713
            assert err.value.time == pytest.approx(7.13)

    @pytest.mark.filterwarnings("ignore:dt \\* \\|\\|E\\|\\|:UserWarning")
    def test_error_coordinates_keep_digits(self):
        # the plant state grows to about 1e6 while the error decays to about
        # 1e-5; stepping e directly keeps the digits a subtraction would lose
        rng = np.random.default_rng(1)
        g_net = random_sc_digraph(rng, 20)
        model = random_partial_model(rng, 20, 20)
        design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
        config = SimulationConfig(t_final=10, dt=1e-3, seed=1)
        trace = integrate(config, model, g_net, design)
        E = build_global_error_matrix(model, balance(g_net), design).E
        e0 = (trace.xhat[0] - trace.x[0]).ravel()
        exact = np.linalg.norm(
            np.linalg.matrix_power(scipy.linalg.expm(E), 10) @ e0
        )
        assert abs(trace.e_global[-1] - exact) <= 1e-9 * exact

    @pytest.mark.filterwarnings("ignore:error norm hit zero:UserWarning")
    @pytest.mark.parametrize(
        "t_final, record_stride, zero_error",
        [
            pytest.param(1.0, 7, False, id="stride-7-of-1000-steps"),
            pytest.param(0.05, 1, False, id="shorter-than-a-block"),
            pytest.param(1.0, 1, True, id="zero-initial-error"),
        ],
    )
    def test_blocked_stepping_matches_single_steps(
        self, monkeypatch, t_final, record_stride, zero_error
    ):
        rng = np.random.default_rng(14)
        model = random_model(rng, 3, 3)
        g_net = random_sc_digraph(rng, 3)
        design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
        x0 = rng.uniform(-1.0, 1.0, 3)
        xhat0 = np.tile(x0, (3, 1)) if zero_error else None
        config = SimulationConfig(
            t_final=t_final, dt=1e-3, x0=x0, xhat0=xhat0, seed=15,
            record_stride=record_stride,
        )
        blocked = integrate(config, model, g_net, design)
        monkeypatch.setattr(sim, "_BLOCK", 1)
        single = integrate(config, model, g_net, design)
        steps = int(round(t_final / 1e-3))
        recorded = [*range(0, steps + 1, record_stride)]
        if recorded[-1] != steps:
            recorded.append(steps)
        assert np.array_equal(blocked.times, np.array(recorded) * 1e-3)
        assert np.array_equal(single.times, blocked.times)
        rows = len(recorded)
        for got, want in [
            (blocked.x, single.x),
            (blocked.xhat.reshape(rows, -1), single.xhat.reshape(rows, -1)),
            (blocked.e_norms, single.e_norms),
        ]:
            gap = np.linalg.norm(got - want, axis=1)
            assert np.all(gap <= 1e-12 * np.linalg.norm(want, axis=1))
        if zero_error:
            assert np.all(blocked.e_global == 0.0)
            assert np.all(single.e_global == 0.0)
        else:
            gap = np.abs(blocked.e_global - single.e_global)
            assert np.all(gap <= 1e-12 * single.e_global)

    @pytest.mark.parametrize("n", [2, 10, 30])
    def test_step_size_norm(self, n):
        rng = np.random.default_rng(1)
        g_net = random_sc_digraph(rng, n)
        model = random_partial_model(rng, n, n)
        design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
        E = probed_field(model, g_net, design)[n:, n:]
        norm = spectral_norm(E)
        assert abs(norm - np.linalg.norm(E, 2)) <= 1e-12 * norm
        built = build_global_error_matrix(model, balance(g_net), design).E
        assert abs(norm - np.linalg.norm(built, 2)) <= 1e-12 * norm

    def test_deterministic_csv(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, 2, 2)
        design = synthesize(model, UNIT_2CYCLE, SynthesisParams(alpha=1.0))
        outputs = []
        for _ in range(2):
            config = SimulationConfig(t_final=0.5, dt=1e-3, seed=101, record_stride=5)
            trace = integrate(config, model, UNIT_2CYCLE, design)
            buf = io.StringIO()
            write_csv(trace, buf, include_states=True)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]


class TestEstimateDecayRate:
    def test_pure_exponential(self):
        t = np.linspace(0.0, 10.0, 401)
        rate = estimate_decay_rate(trace_from_norm(t, np.exp(-2.0 * t)), (1.0, 9.0))
        assert rate == pytest.approx(2.0, abs=1e-6)

    def test_constant_error(self):
        t = np.linspace(0.0, 10.0, 101)
        rate = estimate_decay_rate(trace_from_norm(t, np.full_like(t, 0.7)), (0.0, 10.0))
        assert rate == pytest.approx(0.0, abs=1e-12)

    def test_oscillatory_perturbation(self):
        t = np.linspace(0.0, 10.0, 2001)
        alpha = 1.3
        values = np.exp(-alpha * t) * (1.0 + 0.1 * np.sin(t))
        rate = estimate_decay_rate(trace_from_norm(t, values), (1.0, 10.0))
        assert rate == pytest.approx(alpha, abs=0.05)

    def test_zero_samples_shrink_with_warning(self):
        t = np.linspace(0.0, 10.0, 101)
        values = np.exp(-t)
        values[60:] = 0.0
        with pytest.warns(UserWarning, match="shrinking"):
            rate = estimate_decay_rate(trace_from_norm(t, values), (0.0, 10.0))
        assert rate == pytest.approx(1.0, abs=1e-6)

    def test_insufficient_data(self):
        t = np.linspace(0.0, 10.0, 101)
        with pytest.raises(InsufficientDataError):
            estimate_decay_rate(trace_from_norm(t, np.exp(-t)), (4.0, 4.5))


class TestSimulationConfig:
    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            SimulationConfig(t_final=1.0, dt=0.0)

    def test_rejects_short_horizon(self):
        with pytest.raises(ValueError):
            SimulationConfig(t_final=0.005, dt=1e-3)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            SimulationConfig(t_final=1.0, dt=1e-3, fit_window=(0.5, 2.0))

    def test_default_window(self):
        config = SimulationConfig(t_final=10.0, dt=1e-3)
        assert config.resolved_fit_window() == (2.0, 9.0)


class TestWriteCsv:
    def test_header_without_states(self):
        t = np.array([0.0, 0.5])
        trace = SimulationTrace(
            times=t,
            x=np.zeros((2, 2)),
            xhat=np.zeros((2, 2, 2)),
            e_norms=np.ones((2, 2)),
            e_global=np.ones(2),
            fitted_rate=None,
        )
        buf = io.StringIO()
        write_csv(trace, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,e_global,e_1,e_2"
        assert len(lines) == 3

    def test_values_round_trip(self):
        times = np.array([0.0, 1.0 / 3.0])
        e = np.array([np.pi, np.e * 1e-7])
        trace = SimulationTrace(
            times=times,
            x=np.zeros((2, 1)),
            xhat=np.zeros((2, 1, 1)),
            e_norms=e[:, None],
            e_global=e,
            fitted_rate=None,
        )
        buf = io.StringIO()
        write_csv(trace, buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
        assert float(rows[1][0]) == times[1]
        assert float(rows[0][1]) == e[0]
        assert float(rows[1][1]) == e[1]

    def test_bytes_match_per_row_formatting(self):
        # inexact, signed zero, tiny, integral, large and irrational values
        values = np.array([1.0 / 3.0, -0.0, 1e-300, 2.0, -7.5e12, np.pi])
        rows, N, n = 3, 2, 2
        trace = SimulationTrace(
            times=np.array([0.0, 1.0 / 3.0, 2.0]),
            x=np.resize(np.roll(values, 1), (rows, n)),
            xhat=np.resize(np.roll(values, 2), (rows, N, n)),
            e_norms=np.resize(np.roll(values, 3), (rows, N)),
            e_global=np.resize(values, rows),
            fitted_rate=None,
        )
        buf = io.StringIO()
        write_csv(trace, buf, include_states=True)
        header, body = buf.getvalue().split("\n", 1)
        expected = ""
        for k in range(rows):
            row = [trace.times[k], trace.e_global[k], *trace.e_norms[k]]
            row += [*trace.x[k], *trace.xhat[k].ravel()]
            expected += ",".join(f"{value:.17g}" for value in row) + "\n"
        assert body == expected
        assert "-0," in body and "1e-300" in body and "0.33333333333333331" in body

    def test_state_columns(self):
        trace = SimulationTrace(
            times=np.zeros(1),
            x=np.zeros((1, 2)),
            xhat=np.zeros((1, 3, 2)),
            e_norms=np.zeros((1, 3)),
            e_global=np.zeros(1),
            fitted_rate=None,
        )
        buf = io.StringIO()
        write_csv(trace, buf, include_states=True)
        header = buf.getvalue().splitlines()[0].split(",")
        assert header[:5] == ["t", "e_global", "e_1", "e_2", "e_3"]
        assert "x_1" in header and "x_2" in header
        assert "xhat_3_2" in header
        assert len(header) == 2 + 3 + 2 + 6
