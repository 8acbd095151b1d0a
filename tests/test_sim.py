import dataclasses
import io
import math
import sys
import threading

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    dense_E,
    partial_instance,
    random_model,
    random_partial_model,
    random_sc_digraph,
    rhs,
)
from observer_kit import sim
from observer_kit.decomp import SystemModel
from observer_kit.errors import DimensionError, DivergenceError, InsufficientDataError
from observer_kit.graph import Digraph, balance
from observer_kit.sim import (
    SimulationConfig,
    SimulationTrace,
    estimate_decay_rate,
    integrate,
    write_csv,
)
from observer_kit.synth import NodeGains, ObserverDesign, SynthesisParams, synthesize
from observer_kit import verify
from observer_kit.verify import build_global_error_matrix

UNIT_2CYCLE = Digraph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)])
SINGLE_NODE = Digraph(np.zeros((1, 1)))


def scalar_design(l, m, gamma, alpha=1.0, n_nodes=1):
    node = NodeGains(L=np.array([[l]]), M=np.array([[m]]))
    return ObserverDesign(
        gamma=gamma, epsilon=0.9, alpha=alpha, r=np.ones(n_nodes),
        nodes=(node,) * n_nodes,
    )


def probed_field(model, g_net, design):
    """Matrix F with rhs(z) = F z, found by applying rhs to the identity."""
    return rhs(np.eye(model.n * (model.node_count + 1)), model, g_net, design)


def no_replay():
    raise AssertionError("the states were read")


def mixed_group_instance():
    """(model, graph) of a coupled pair of modes and three lone modes: the
    error system has one group of size 2 and three of size 1, stepped as
    two size classes whose columns interleave those of (x, e)."""
    A = np.zeros((5, 5))
    A[:2, :2] = [[0.5, 1.0], [-1.0, 0.2]]
    A[2:, 2:] = np.diag([0.3, -0.4, 0.8])
    eye = np.eye(5)
    model = SystemModel(A=A, outputs=(eye[[0]], eye[[2, 3]], eye[[4]]))
    return model, random_sc_digraph(np.random.default_rng(21), 3)


def trace_from_norm(times, values):
    e = np.asarray(values, dtype=float)
    return SimulationTrace(
        times=np.asarray(times, dtype=float),
        e_norms=e[:, None],
        e_global=e,
        fitted_rate=None,
        replay=no_replay,
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
            nodes.append(NodeGains(L=np.zeros((n, 1)), M=M))
        design = ObserverDesign(
            gamma=1.7, epsilon=0.9, alpha=1.0, r=bal.r, nodes=tuple(nodes)
        )
        F = probed_field(model, g_net, design)
        E = dense_E(build_global_error_matrix(model, bal, design))
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
        E = dense_E(build_global_error_matrix(model, balance(g_net), design))
        expected = scipy.linalg.block_diag(model.A, E)
        assert np.allclose(field, expected, rtol=1e-12, atol=1e-12 * np.max(np.abs(probe)))


class TestIntegrate:
    def test_builds_error_system_once(self, monkeypatch):
        rng = np.random.default_rng(4)
        model = random_model(rng, 3, 3)
        g_net = random_sc_digraph(rng, 3)
        design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
        calls = []
        real_build = verify.build_global_error_matrix

        def build_spy(*args, **kwargs):
            calls.append(args)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(verify, "build_global_error_matrix", build_spy)
        integrate(SimulationConfig(t_final=0.1, seed=0), model, g_net, design)
        assert len(calls) == 1

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
        E = dense_E(build_global_error_matrix(model, balance(UNIT_2CYCLE), design))
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
        E = dense_E(build_global_error_matrix(model, balance(g_net), design))
        e = (trace.xhat[0] - trace.x[0]).ravel()
        for _ in range(1000):
            k1 = E @ e
            k2 = E @ (e + 0.5 * dt * k1)
            k3 = E @ (e + 0.5 * dt * k2)
            k4 = E @ (e + dt * k3)
            e = e + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        simulated = (trace.xhat[-1] - trace.x[-1]).ravel()
        assert np.linalg.norm(simulated - e) <= 1e-8 * np.linalg.norm(e)

    @pytest.mark.parametrize("n", [2, 10, 20, 30, 40])
    def test_every_sample_matches_matrix_exponential(self, n):
        # seed-1 n = N partial instances; at n = 30, dt * rho(E) = 3.19 lies
        # past the stability limit of explicit Runge-Kutta steps. Each is
        # stepped one coordinate group at a time, checked against the
        # exponential of the whole E
        rng = np.random.default_rng(1)
        g_net = random_sc_digraph(rng, n)
        model = random_partial_model(rng, n, n)
        design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
        config = SimulationConfig(t_final=10.0, dt=1e-3, seed=1, record_stride=500)
        trace = integrate(config, model, g_net, design)
        E = dense_E(build_global_error_matrix(model, balance(g_net), design))
        e_step = scipy.linalg.expm(E * 0.5)
        x_step = scipy.linalg.expm(model.A * 0.5)
        assert np.allclose(trace.times, 0.5 * np.arange(21), rtol=0, atol=1e-12)
        # x grows to about 1e6 while e decays to about 1e-5, so e is read
        # from the recorded norms, not from the difference xhat - x
        e = (trace.xhat[0] - trace.x[0]).ravel()
        x = trace.x[0]
        for k in range(21):
            scale = np.linalg.norm(e)
            assert abs(trace.e_global[k] - scale) <= 1e-9 * scale
            node_norms = np.linalg.norm(e.reshape(n, n), axis=1)
            assert np.all(np.abs(trace.e_norms[k] - node_norms) <= 1e-9 * scale)
            assert np.linalg.norm(trace.x[k] - x) <= 1e-9 * np.linalg.norm(x)
            e, x = e_step @ e, x_step @ x

    def test_estimates_are_formed_when_read(self):
        model, g_net = partial_instance(3)
        design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
        config = SimulationConfig(t_final=0.1, dt=1e-3, seed=2, record_stride=10)
        trace = integrate(config, model, g_net, design)
        assert "xhat" not in {f.name for f in dataclasses.fields(trace)}
        assert trace.e.shape == (11, 3, 3)
        assert np.array_equal(trace.xhat, trace.x[:, None, :] + trace.e)
        assert np.allclose(trace.e_norms, np.linalg.norm(trace.e, axis=2), rtol=1e-15, atol=0)

    @pytest.mark.parametrize(
        "record_stride, block",
        [(1, sim._BLOCK), (7, sim._BLOCK), (1, 1), (7, 1)],
        ids=["stride-1", "stride-7", "stride-1-single-steps", "stride-7-single-steps"],
    )
    def test_mixed_group_sizes_match_single_expm_steps(self, monkeypatch, record_stride, block):
        model, g_net = mixed_group_instance()
        A = model.A
        design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
        err_sys = verify.error_system(model, g_net, design)[1]
        assert len(err_sys.groups) >= 2
        monkeypatch.setattr(sim, "_BLOCK", block)
        dt, steps = 1e-3, 300
        config = SimulationConfig(t_final=steps * dt, dt=dt, seed=4, record_stride=record_stride)
        trace = integrate(config, model, g_net, design)

        rng = np.random.default_rng(4)  # the draws integrate makes for x0 and xhat0
        x, xhat0 = rng.uniform(-1.0, 1.0, 5), rng.uniform(-1.0, 1.0, (3, 5))
        e = (xhat0 - x).ravel()
        x_step, e_step = scipy.linalg.expm(dt * A), scipy.linalg.expm(dt * dense_E(err_sys))
        recorded = [*range(0, steps + 1, record_stride)]
        if recorded[-1] != steps:
            recorded.append(steps)
        want = {}
        for k in range(steps + 1):
            if k in recorded:
                want[k] = (x.copy(), e.reshape(3, 5).copy())
            x, e = x_step @ x, e_step @ e
        assert np.allclose(trace.times, np.array(recorded) * dt, rtol=0, atol=1e-15)
        got = zip(trace.x, trace.e, trace.xhat, trace.e_norms, trace.e_global)
        for k, (x_k, e_k, xhat_k, norms_k, global_k) in zip(recorded, got):
            x_want, e_want = want[k]
            scale = np.linalg.norm(e_want)
            assert np.linalg.norm(x_k - x_want) <= 1e-12 * np.linalg.norm(x_want)
            assert np.linalg.norm(e_k - e_want) <= 1e-12 * scale
            xhat_want = x_want + e_want
            assert np.linalg.norm(xhat_k - xhat_want) <= 1e-12 * np.linalg.norm(xhat_want)
            assert np.all(np.abs(norms_k - np.linalg.norm(e_want, axis=1)) <= 1e-12 * scale)
            assert abs(global_k - scale) <= 1e-12 * scale

    def test_stacked_expm_matches_each_matrix(self):
        # one scaling for the whole stack: the matrix of smaller norm is
        # squared more often than alone, and still exact to 1e-14
        rng = np.random.default_rng(3)
        stack = np.stack([rng.normal(size=(5, 5)), 1e-3 * rng.normal(size=(5, 5))])
        got = sim._expm(stack)
        for M, P in zip(stack, got):
            want = scipy.linalg.expm(M)
            assert np.linalg.norm(P - want, 1) <= 1e-14 * np.linalg.norm(want, 1)

    @pytest.mark.parametrize("n", [0, 10, 30])
    def test_step_matrix_matches_scipy_expm(self, n):
        # exp(dt E) of seed-1 n = N partial instances; n = 0 is the zero matrix
        if n:
            rng = np.random.default_rng(1)
            g_net = random_sc_digraph(rng, n)
            model = random_partial_model(rng, n, n)
            design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
            M = 1e-3 * dense_E(build_global_error_matrix(model, balance(g_net), design))
        else:
            M = np.zeros((4, 4))
        want = scipy.linalg.expm(M)
        assert np.linalg.norm(sim._expm(M) - want, 1) <= 1e-14 * np.linalg.norm(want, 1)

    def test_divergence_reports_first_bad_step(self):
        # wrong-sign injection blows the estimate up past overflow
        model = SystemModel(A=[[0.0]], outputs=([[1.0]],))
        design = scalar_design(l=-100.0, m=1.0, gamma=0.0)
        config = SimulationConfig(
            t_final=20.0, dt=1e-2, x0=[0.0], xhat0=[[1.0]], seed=0
        )
        with pytest.raises(DivergenceError) as err:
            integrate(config, model, SINGLE_NODE, design)
        assert err.value.step is not None and err.value.step > 0

    def test_overflowing_step_diverges_at_step_one(self):
        # exp(1e4) overflows inside the matrix exponential itself
        model = SystemModel(A=[[0.0]], outputs=([[1.0]],))
        design = scalar_design(l=-1e6, m=1.0, gamma=0.0)
        config = SimulationConfig(
            t_final=20.0, dt=1e-2, x0=[0.0], xhat0=[[1.0]], seed=0
        )
        with pytest.raises(DivergenceError) as err:
            integrate(config, model, SINGLE_NODE, design)
        assert err.value.step == 1

    def test_divergence_step_is_first_non_finite_state(self, monkeypatch):
        # the error grows by the exact factor exp(lambda dt) per step; the
        # first power above the largest float is step 710, whatever the
        # block length
        lam, dt = 100.0, 1e-2
        expected = math.floor(math.log(np.finfo(float).max) / (lam * dt)) + 1
        assert expected == 710
        model = SystemModel(A=[[0.0]], outputs=([[1.0]],))
        design = scalar_design(l=-lam, m=1.0, gamma=0.0)
        config = SimulationConfig(
            t_final=20.0, dt=dt, x0=[0.0], xhat0=[[1.0]], seed=0
        )
        for single_steps in (False, True):
            if single_steps:
                monkeypatch.setattr(sim, "_BLOCK", 1)
            with pytest.raises(DivergenceError) as err:
                integrate(config, model, SINGLE_NODE, design)
            assert err.value.step == expected
            assert err.value.time == pytest.approx(expected * dt)

    def test_states_are_replayed_only_when_read(self, monkeypatch):
        model, g_net = partial_instance(3)
        design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
        config = SimulationConfig(t_final=1.0, dt=1e-3, seed=2, record_stride=10)
        replay, calls = sim._replay, []

        def counting(*args):
            calls.append(args)
            return replay(*args)

        monkeypatch.setattr(sim, "_replay", counting)
        trace = integrate(config, model, g_net, design)
        assert trace.e_norms.shape == (101, 3) and trace.e_global.shape == (101,)
        assert trace.fitted_rate > 1.0
        assert calls == []
        x, xhat = trace.x, trace.xhat
        assert len(calls) == 1
        e = trace.e
        assert np.array_equal(trace.states, np.hstack([x, e.reshape(101, -1)]))
        assert np.array_equal(xhat, x[:, None, :] + e)
        assert len(calls) == 1
        assert not trace.states.flags.writeable

    @pytest.mark.parametrize("record_stride", [1, 7])
    @pytest.mark.parametrize("block", [sim._BLOCK, 1], ids=["blocks", "single-steps"])
    def test_overflowing_plant_does_not_stop_the_error(self, monkeypatch, record_stride, block):
        # x' = 80 x overflows at t = 8.87, yet e' = E e never reads x; the
        # replay redoes the block in which x overflows, whatever its length
        monkeypatch.setattr(sim, "_BLOCK", block)
        model = SystemModel(A=np.diag([80.0, 2.0]), outputs=(np.eye(2)[:1], np.eye(2)[1:]))
        design = synthesize(model, UNIT_2CYCLE, SynthesisParams(alpha=1.0))
        abscissa = verify.verify_design(model, UNIT_2CYCLE, design).abscissa
        dt = 1e-3
        config = SimulationConfig(
            t_final=10.0, dt=dt, x0=[1.0, 0.0], seed=0, record_stride=record_stride
        )
        trace = integrate(config, model, UNIT_2CYCLE, design)
        assert np.all(np.isfinite(trace.e_norms))
        assert trace.fitted_rate == pytest.approx(-abscissa, rel=1e-3)
        # the first power of exp(80 dt) above the largest float
        expected = math.floor(math.log(np.finfo(float).max) / (80.0 * dt)) + 1
        for _ in range(2):
            with pytest.raises(DivergenceError, match="plant state x") as err:
                trace.x
            assert err.value.step == expected
        # and it decays on at the spectral rate to the end of the run
        assert trace.e_global[-1] <= trace.e_global[0] * math.exp(abscissa * config.t_final)

    @pytest.mark.parametrize(
        "dt, record_stride", [(1e-2, 1), (1e-2, 7), (1.0, 1)],
        ids=["stride-1", "stride-7", "inside-the-first-block"],
    )
    @pytest.mark.parametrize("g_net", [SINGLE_NODE, UNIT_2CYCLE], ids=["one-node", "two-nodes"])
    def test_error_above_the_root_of_the_largest_float_has_finite_norms(
        self, dt, record_stride, g_net
    ):
        # |e|' = 50 |e| grows to e^500 = 1.4e217 at every node, finite, though
        # its square passes the largest float from t = 7.1 on; equal node
        # errors never disagree, so the coupling stays zero
        N = g_net.node_count
        model = SystemModel(A=[[0.0]], outputs=([[1.0]],) * N)
        design = scalar_design(l=-50.0, m=1.0, gamma=1.0, n_nodes=N)
        config = SimulationConfig(
            t_final=10.0, dt=dt, x0=[0.0], xhat0=[[-1.0]] * N, record_stride=record_stride,
            fit_window=(0.0, 10.0),
        )
        trace = integrate(config, model, g_net, design)
        exact = np.exp(50.0 * trace.times)
        assert np.any(exact > math.sqrt(np.finfo(float).max))
        pairs = [(trace.e_norms, exact[:, None]), (trace.e_global, math.sqrt(N) * exact)]
        for norms, want in pairs:
            assert np.all(np.isfinite(norms))
            assert np.all(np.abs(norms - want) <= 1e-10 * want)
        assert trace.fitted_rate == pytest.approx(-50.0, rel=1e-9)

    def test_error_coordinates_keep_digits(self):
        # the plant state grows to about 1e6 while the error decays to about
        # 1e-5; stepping e directly keeps the digits a subtraction would lose
        rng = np.random.default_rng(1)
        g_net = random_sc_digraph(rng, 20)
        model = random_partial_model(rng, 20, 20)
        design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
        config = SimulationConfig(t_final=10, dt=1e-3, seed=1)
        trace = integrate(config, model, g_net, design)
        E = dense_E(build_global_error_matrix(model, balance(g_net), design))
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

    @pytest.mark.parametrize("record_stride", [1, 7])
    @pytest.mark.parametrize(
        "instance, t_final",
        [(mixed_group_instance, 0.3), (lambda: partial_instance(10), 2.0)],
        ids=["mixed-group-sizes", "rung-10"],
    )
    def test_spans_change_no_row(self, monkeypatch, instance, t_final, record_stride):
        # by default the mixed model takes its 301 states in one span and
        # rung 10 its 2001 in spans of ten blocks; one block per span must
        # give the same bits
        model, g_net = instance()
        design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
        config = SimulationConfig(t_final=t_final, dt=1e-3, seed=3, record_stride=record_stride)
        spans = integrate(config, model, g_net, design)
        monkeypatch.setattr(sim, "_SPAN_BYTES", 0)
        blocks = integrate(config, model, g_net, design)
        for name in ("e_norms", "e_global", "states"):
            assert np.array_equal(getattr(spans, name), getattr(blocks, name)), name
        assert spans.fitted_rate == blocks.fitted_rate

    @pytest.mark.parametrize(
        "lam, dt, span_bytes, expected",
        [(10.0, 1e-3, sim._SPAN_BYTES, 70979), (100.0, 1e-2, 4 * sim._BLOCK * 8, 710)],
        ids=["second-of-the-default-spans", "fourth-block-of-the-third-span"],
    )
    def test_divergence_inside_a_later_span(self, monkeypatch, lam, dt, span_bytes, expected):
        # a scalar error grows by exp(lam dt) per step and first passes the
        # largest float at step 70979, in the second span of 65536 states,
        # or at 710, in the fourth block of the third span of 256; the redo
        # from the start of the span names the step that single steps name
        assert expected == math.floor(math.log(np.finfo(float).max) / (lam * dt)) + 1
        model = SystemModel(A=[[0.0]], outputs=([[1.0]],))
        design = scalar_design(l=-lam, m=1.0, gamma=0.0)
        config = SimulationConfig(
            t_final=(expected + 1000) * dt, dt=dt, x0=[0.0], xhat0=[[1.0]], seed=0
        )
        monkeypatch.setattr(sim, "_SPAN_BYTES", span_bytes)
        steps = []
        for block in (sim._BLOCK, 1):
            monkeypatch.setattr(sim, "_BLOCK", block)
            with pytest.raises(DivergenceError, match="estimation error") as err:
                integrate(config, model, SINGLE_NODE, design)
            steps.append(err.value.step)
        assert steps == [expected, expected]


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

    @pytest.mark.parametrize(
        "settings",
        [{"seed": -1}, {"seed": 1.5}, {"seed": True}, {"record_stride": 2.5},
         {"record_stride": 0}, {"record_stride": 2.0}],
        ids=["seed-negative", "seed-1.5", "seed-bool", "stride-2.5", "stride-0",
             "stride-float"],
    )
    def test_rejects_bad_seed_or_stride(self, settings):
        with pytest.raises(ValueError):
            SimulationConfig(t_final=1.0, dt=1e-3, **settings)

    @pytest.mark.parametrize(
        "t_final, dt",
        [(10.0, 1e-300), (2.0**63, 1.0), (1e300, 1e-300)],
        ids=["dt-1e-300", "index-max-plus-one", "ratio-overflows"],
    )
    def test_rejects_step_count_numpy_cannot_index(self, t_final, dt):
        # each fails before any array is made: round(t_final / dt) reaches
        # np.iinfo(np.intp).max, past the length of any numpy array
        with pytest.raises(ValueError, match="steps"):
            SimulationConfig(t_final=t_final, dt=dt)

    def test_accepts_numpy_integers(self):
        config = SimulationConfig(t_final=1.0, seed=np.int64(3), record_stride=np.int32(2))
        assert config.seed == 3 and config.record_stride == 2

    def test_default_window(self):
        config = SimulationConfig(t_final=10.0, dt=1e-3)
        assert config.resolved_fit_window() == (2.0, 9.0)


class TestWriteCsv:
    def test_header_without_states(self):
        t = np.array([0.0, 0.5])
        trace = SimulationTrace(
            times=t,
            e_norms=np.ones((2, 2)),
            e_global=np.ones(2),
            fitted_rate=None,
            replay=no_replay,
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
            e_norms=e[:, None],
            e_global=e,
            fitted_rate=None,
            replay=no_replay,
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
        x = np.resize(np.roll(values, 1), (rows, n))
        e = np.resize(np.roll(values, 2), (rows, N * n))
        trace = SimulationTrace(
            times=np.array([0.0, 1.0 / 3.0, 2.0]),
            e_norms=np.resize(np.roll(values, 3), (rows, N)),
            e_global=np.resize(values, rows),
            fitted_rate=None,
            replay=lambda: np.hstack([x, e]),
        )
        assert np.array_equal(trace.x, x) and np.array_equal(trace.e.reshape(rows, -1), e)
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
            e_norms=np.zeros((1, 3)),
            e_global=np.zeros(1),
            fitted_rate=None,
            replay=lambda: np.zeros((1, 8)),
        )
        buf = io.StringIO()
        write_csv(trace, buf, include_states=True)
        header = buf.getvalue().splitlines()[0].split(",")
        assert header[:5] == ["t", "e_global", "e_1", "e_2", "e_3"]
        assert "x_1" in header and "x_2" in header
        assert "xhat_3_2" in header
        assert len(header) == 2 + 3 + 2 + 6


def table_trace(table):
    """A trace whose write_csv columns are those of the 2-D table."""
    return SimulationTrace(
        times=table[:, 0],
        e_norms=table[:, 2:],
        e_global=table[:, 1],
        fitted_rate=None,
        replay=no_replay,
    )


def csv_body(table):
    """What write_csv writes below its header for a trace whose columns
    are those of the 2-D table."""
    buf = io.StringIO()
    write_csv(table_trace(table), buf)
    return buf.getvalue().split("\n", 1)[1]


def per_value_body(table):
    return "".join(",".join("%.17g" % value for value in row) + "\n" for row in table)


def assert_formats_like_cpython(values, cols=10):
    values = np.asarray(values, dtype=float)
    values = np.concatenate([values, np.zeros(-values.size % cols)])
    assert_table_formats_like_cpython(values.reshape(-1, cols))


def assert_table_formats_like_cpython(table):
    body, expected = csv_body(table), per_value_body(table)
    for row, (got, want) in enumerate(zip(body.splitlines(), expected.splitlines())):
        for col, (g, w) in enumerate(zip(got.split(","), want.split(","))):
            assert g == w, f"value {table[row, col]!r}: wrote {g!r}, %.17g gives {w!r}"
    same = body == expected  # not asserted directly: pytest would diff megabytes
    assert same, "the rows or their separators differ"


def signed(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


class TestCsvFormatting:
    # write_csv formats a chunk of values at a time with numpy, leaving
    # only the values whose rounding it cannot decide to CPython; the
    # oracle is CPython's '%.17g' of each value

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(0).integers(0, 2**64, 10**5, np.uint64, endpoint=False)
        assert_formats_like_cpython(bits.view(np.float64))

    def test_powers_and_their_neighbours(self):
        powers = [float(f"1e{p}") for p in range(-323, 309)]
        powers += [math.ldexp(1.0, p) for p in range(-1074, 1024)]
        powers = signed(powers)
        around = [powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf)]
        assert_formats_like_cpython(np.concatenate(around))

    def test_exact_ties_round_half_to_even(self):
        # 18 significant digits ending in 5: exactly halfway at 17 digits
        ties = signed([1234567890123456.75, 1234567890123456.25, 2251799813685247.5 / 2])
        assert_formats_like_cpython(ties, cols=3)
        first = csv_body(ties[None, :]).split(",")[:2]
        assert first == ["1234567890123456.8", "1234567890123456.2"]

    def test_rounding_into_the_next_decade(self):
        below = np.nextafter([1e17, 1e16, 1.0, 1e-5, 1e23, 1e300], 0)
        assert_formats_like_cpython(signed([*below, *np.nextafter(below, 0)]), cols=6)

    def test_just_below_powers_of_ten(self):
        # floor(log10 |v|) is one too large for most of these: log10 rounds
        # up to the integer, and the guessed decade must be corrected
        powers = np.array([float(f"1e{p}") for p in range(-307, 309, 7)])
        values = np.concatenate([powers * (1 - j * 1e-15) for j in range(1, 40, 3)])
        assert_formats_like_cpython(signed(values))

    @pytest.mark.parametrize("X", range(-5, 18))
    def test_each_layout(self, X):
        # fixed notation for -4 <= X < 17, d.ddde+XX outside; with and
        # without trailing zeros, so that the point is kept or dropped
        mantissas = [1.2345678901234567, 1.5, 1.0, 9.875, 3.0000000000000004]
        values = signed([m * 10.0**X for m in mantissas])
        assert_formats_like_cpython(values, cols=len(mantissas))

    def test_zeros_infinities_and_nan(self):
        values = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0]
        assert_formats_like_cpython(values, cols=4)
        assert csv_body(np.array([values])) == "0,-0,inf,-inf,nan,nan,1,-1\n"

    @pytest.mark.parametrize(
        "rows, cols", [(3 * (sim._CSV_CHUNK // 7) + 5, 7), (2, sim._CSV_CHUNK + 3)]
    )
    def test_tables_across_chunks(self, rows, cols):
        # a row count that is not a multiple of the chunk, and one row wider
        # than a chunk: the separators follow the table, not the chunks
        rng = np.random.default_rng(1)
        values = rng.standard_normal(rows * cols) * np.exp(rng.uniform(-40, 40, rows * cols))
        values[::97] = 0.0
        assert_table_formats_like_cpython(values.reshape(rows, cols))


def wide_table(rows, cols, seed=1):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(rows * cols) * np.exp(rng.uniform(-40, 40, rows * cols))
    return values.reshape(rows, cols)


class TestCsvWorkers:
    # write_csv formats its chunks on one worker per usable CPU and writes
    # them in table order: the text must not depend on the count, and no
    # thread may outlive the call

    @pytest.mark.parametrize("workers", [1, 3, 8])
    @pytest.mark.parametrize(
        "rows, cols", [(3 * (sim._CSV_CHUNK // 7) + 5, 7), (2, sim._CSV_CHUNK + 3)]
    )
    def test_worker_count_changes_no_byte(self, monkeypatch, rows, cols, workers):
        table = wide_table(rows, cols)
        default = csv_body(table)
        monkeypatch.setattr(sim, "_usable_cpus", lambda: workers)
        same = csv_body(table) == default  # not asserted directly: pytest would diff megabytes
        assert same

    def test_one_worker_writes_the_states_trace_alike(self, monkeypatch):
        # the n = N = 10 simulate --states table at the default settings,
        # 38 chunks
        model, g_net = partial_instance(10)
        design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
        trace = integrate(SimulationConfig(t_final=10.0, seed=1), model, g_net, design)
        default, one = io.StringIO(), io.StringIO()
        write_csv(trace, default, include_states=True)
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 1)
        write_csv(trace, one, include_states=True)
        same = one.getvalue() == default.getvalue()
        assert same and len(default.getvalue()) > 30 * sim._CSV_CHUNK

    def test_workers_fill_fresh_tables_alike(self, monkeypatch):
        # the powers of ten enter the shared tables on first use, from
        # whichever worker meets them first; more workers than CPUs and a
        # short switch interval interleave them
        rng = np.random.default_rng(2)
        size = 5 * sim._CSV_CHUNK
        values = rng.standard_normal(size) * 10.0 ** rng.uniform(-300, 300, size)
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 8)
        sim._decimal_tables.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert_formats_like_cpython(values)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("stage", ["write", "format"])
    def test_error_stops_every_worker(self, monkeypatch, stage):
        # chunk 4 of 9 fails in worker 1 of 3, written or formatted: the
        # error reaches the caller after every worker has stopped, and
        # only chunks before it were written, in order
        table = wide_table(9 * sim._CSV_CHUNK // 10, 10)
        body = csv_body(table)
        monkeypatch.setattr(sim, "_usable_cpus", lambda: 3)
        texts = []

        class Stream:
            failed = False

            def write(self, text):
                # once, after the header and 4 chunks; later writes would land
                if stage == "write" and len(texts) == 5 and not self.failed:
                    self.failed = True
                    raise OSError(28, "No space left on device")
                texts.append(text)

        format_chunk = sim._format_chunk

        def failing(x, seps, tables):
            if x[0] == table.flat[4 * sim._CSV_CHUNK]:
                raise OSError(12, "Cannot allocate memory")
            return format_chunk(x, seps, tables)

        if stage == "format":
            monkeypatch.setattr(sim, "_format_chunk", failing)
        baseline = threading.active_count()
        raised = []

        def run():
            try:
                write_csv(table_trace(table), Stream())
            except OSError as exc:
                raised.append(exc)

        caller = threading.Thread(target=run)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive() and len(raised) == 1
        assert threading.active_count() == baseline
        assert len(texts) == 5 if stage == "write" else 1 <= len(texts) <= 5
        assert body.startswith("".join(texts[1:]))
