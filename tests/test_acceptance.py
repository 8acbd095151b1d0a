"""Acceptance battery: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output), and every tolerance is asserted exactly as stated,
nothing is deferred to later calibration. The randomized instances share
one module-scoped battery so the certificate criteria see precisely the
designs whose synthesis was timed.
"""

import contextlib
import json
import time

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    battery_instances,
    decompose_node,
    dense_E,
    kalman_rank,
    paper_design,
    random_dense_model,
    random_model,
    random_partial_model,
    random_sc_digraph,
    random_undirected_graph,
)
from observer_kit.cli import main
from observer_kit.decomp import SystemModel, joint_observability_rank
from observer_kit.graph import balance, laplacian
from observer_kit.numerics import eigenvalues, solve_lyapunov
from observer_kit.sim import SimulationConfig, integrate
from observer_kit.synth import SynthesisParams, synthesize
from observer_kit.verify import (
    build_global_error_matrix,
    lyapunov_certificate,
    spectral_abscissa_certificate,
)
from test_numerics import char_poly_coefficients, kron_lyapunov_oracle, sorted_complex
from test_synth import t_coordinate_lmi_margins


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"FAIL  {label}", flush=True)
        raise
    print(f"PASS  {label}", flush=True)


@pytest.fixture(scope="module")
def battery():
    """100 randomized instances, synthesized once and timed."""
    instances = battery_instances(20240817)
    start = time.perf_counter()
    results = []
    failures = []
    for model, g_net in instances:
        try:
            design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
        except Exception as exc:  # tally, do not abort the battery
            failures.append(repr(exc))
            continue
        bal = balance(g_net)
        sys_ = build_global_error_matrix(model, bal, design)
        abscissa = spectral_abscissa_certificate([dense_E(sys_)], 1.0).abscissa
        results.append((model, g_net, bal, design, abscissa))
    elapsed = time.perf_counter() - start
    return {"results": results, "failures": failures, "elapsed": elapsed}


def test_criterion_1_end_to_end_soundness(battery):
    with criterion(
        "criterion 1: 100/100 randomized syntheses decay at rate 1 "
        f"({battery['elapsed']:.1f}s)"
    ):
        assert not battery["failures"], battery["failures"][:3]
        assert len(battery["results"]) == 100
        worst = max(absc for *_, absc in battery["results"])
        assert worst <= -1.0 + 1e-6, f"worst abscissa {worst}"
        assert battery["elapsed"] < 60.0


def test_criterion_2_arbitrary_decay_rate():
    with criterion("criterion 2: one instance redesigned at rates 0.5, 1, 2, 4"):
        # jointly observable, undetectable by every single node
        model = SystemModel(
            A=np.diag([1.0, 2.0]),
            outputs=(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])),
        )
        rng = np.random.default_rng(5)
        g_net = random_sc_digraph(rng, 2)
        gammas = []
        for alpha in (0.5, 1.0, 2.0, 4.0):
            design = synthesize(model, g_net, SynthesisParams(alpha=alpha))
            sys_ = build_global_error_matrix(model, balance(g_net), design)
            verdict = spectral_abscissa_certificate([dense_E(sys_)], alpha)
            assert verdict.abscissa <= -alpha + 1e-6
            gammas.append(design.gamma)
        assert all(g2 >= g1 for g1, g2 in zip(gammas, gammas[1:])), gammas


def test_criterion_3_lmi_certificates(battery):
    with criterion("criterion 3: per-node LMI and global Lyapunov certificates"):
        for model, g_net, bal, design, _ in battery["results"]:
            # the paper's per-node inequalities, on the design of its
            # constructive epsilon/gamma chain
            paper, decomps = paper_design(model, g_net, design.alpha)
            assert np.all(t_coordinate_lmi_margins(paper, decomps) < 0)
            # the global certificate, on the package's own design
            sys_ = build_global_error_matrix(model, bal, design)
            cert = lyapunov_certificate(sys_, bal.mirror, design.gamma, design.alpha)
            assert cert.passed and cert.margin < 0


def test_criterion_4_graph_layer():
    with criterion("criterion 4: balance weights and mirror spectrum on 50 digraphs"):
        rng = np.random.default_rng(99)
        for k in range(50):
            n = int(rng.integers(2, 9))
            g_net = random_sc_digraph(rng, n)
            bal = balance(g_net)
            L = bal.laplacian
            assert np.all(bal.r > 0)
            assert abs(bal.r.sum() - n) <= 1e-10
            assert np.linalg.norm(bal.r @ L) <= 1e-10 * np.linalg.norm(L, "fro")
            w = bal.eigenvalues
            assert w[0] >= -1e-10
            assert np.sum(np.abs(w) <= 1e-10) == 1
        for k in range(15):
            g_net = random_undirected_graph(rng, int(rng.integers(2, 9)))
            assert np.allclose(balance(g_net).r, 1.0, atol=1e-10)


def test_criterion_5_rank_agreement(battery):
    with criterion("criterion 5: joint rank agrees with the Kalman rank"):
        rng = np.random.default_rng(7)
        checked = 0
        for model, *_ in battery["results"]:
            decomps = [decompose_node(H, model.A) for H in model.outputs]
            assert joint_observability_rank(model, decomps) == kalman_rank(model)
            checked += 1
        # one node blinded, which leaves most instances not jointly observable
        for _ in range(25):
            n, N = int(rng.integers(2, 6)), int(rng.integers(2, 5))
            model = random_partial_model(rng, n, N)
            outputs = list(model.outputs)
            outputs[int(rng.integers(0, N))] = np.zeros_like(outputs[0][:1])
            model = SystemModel(A=model.A, outputs=tuple(outputs))
            decomps = [decompose_node(H, model.A) for H in model.outputs]
            assert joint_observability_rank(model, decomps) == kalman_rank(model)
            checked += 1
        assert checked == 125


def test_criterion_6_simulation_matches_theory():
    with criterion("criterion 6: exact propagator vs matrix exponential and fitted decay rate"):
        rng = np.random.default_rng(3)
        done = 0
        while done < 10:
            n = int(rng.integers(2, 4))
            n_nodes = int(rng.integers(2, 4))
            g_net = random_sc_digraph(rng, n_nodes)
            model = random_model(rng, n, n_nodes)
            if joint_observability_rank(model) != n:
                continue
            design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
            config = SimulationConfig(
                t_final=8.0, dt=1e-3, seed=done, record_stride=10,
                fit_window=(2.0, 8.0),
            )
            trace = integrate(config, model, g_net, design)
            E = dense_E(build_global_error_matrix(model, balance(g_net), design))
            e0 = (trace.xhat[0] - trace.x[0]).ravel()
            idx = int(np.argmin(np.abs(trace.times - 1.0)))
            assert trace.times[idx] == pytest.approx(1.0, abs=1e-12)
            exact = scipy.linalg.expm(E) @ e0
            got = (trace.xhat[idx] - trace.x[idx]).ravel()
            rel = np.linalg.norm(got - exact) / np.linalg.norm(exact)
            assert rel <= 1e-9, f"relative mismatch {rel}"
            assert trace.fitted_rate >= 0.95 * 1.0, trace.fitted_rate
            done += 1


def test_criterion_7_oracle_equivalences(battery):
    with criterion("criterion 7: Lyapunov Kronecker oracle and eigenvalue roots"):
        # design certificate blocks from the battery
        for model, g_net, bal, design, _ in battery["results"][:40]:
            for H, node in zip(model.outputs, design.nodes):
                d = decompose_node(H, model.A)
                if d.v == 0:
                    continue
                L_io = d.T1.T @ node.L
                F = d.A_io - L_io @ d.H_io + design.alpha * np.eye(d.v)
                Q = np.eye(d.v)
                P, _ = solve_lyapunov(F, Q)
                expected = kron_lyapunov_oracle(F, Q)
                err = np.linalg.norm(P - expected, "fro")
                assert err <= 1e-8 * max(1.0, np.linalg.norm(expected, "fro"))
        # plain random blocks
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = int(rng.integers(1, 5))
            F = rng.normal(size=(m, m)) - 2.0 * m * np.eye(m)
            B = rng.normal(size=(m, m))
            Q = B @ B.T + 0.5 * np.eye(m)
            P, _ = solve_lyapunov(F, Q)
            expected = kron_lyapunov_oracle(F, Q)
            assert np.linalg.norm(P - expected, "fro") <= 1e-8 * max(
                1.0, np.linalg.norm(expected, "fro")
            )
        # eigenvalues against characteristic polynomial roots
        for _ in range(150):
            m = int(rng.integers(1, 4))
            A = rng.uniform(-2, 2, (m, m))
            got = sorted_complex(eigenvalues(A))
            expected = sorted_complex(np.roots(char_poly_coefficients(A)))
            assert np.allclose(got, expected, atol=1e-8, rtol=1e-8)


def test_criterion_8_negative_controls(tmp_path, capsys):
    with criterion("criterion 8: chain graph, blind network, zeroed coupling"):
        chain = {
            "system": {
                "A": [[1.0, 0.0], [0.0, 2.0]],
                "outputs": [{"H": [[1.0, 0.0]]}, {"H": [[0.0, 1.0]]}],
            },
            "graph": {"N": 2, "edges": [{"from": 0, "to": 1, "weight": 1.0}]},
            "params": {"alpha": 1.0},
        }
        chain_path = tmp_path / "chain.json"
        chain_path.write_text(json.dumps(chain))
        assert main(["check", str(chain_path)]) == 2
        assert main([
            "synthesize", str(chain_path), "-o", str(tmp_path / "d0.json")
        ]) == 2

        blind = json.loads(chain_path.read_text())
        blind["graph"]["edges"].append({"from": 1, "to": 0, "weight": 1.0})
        blind["system"]["outputs"] = [{"H": [[1.0, 0.0]]}, {"H": [[1.0, 0.0]]}]
        blind_path = tmp_path / "blind.json"
        blind_path.write_text(json.dumps(blind))
        assert main(["check", str(blind_path)]) == 2
        assert main([
            "synthesize", str(blind_path), "-o", str(tmp_path / "d1.json")
        ]) == 2

        # healthy instance, then force the coupling gain to (numerically)
        # zero, as a design's gamma must be positive: node 1 cannot see the
        # unstable second mode on its own
        good = json.loads(chain_path.read_text())
        good["graph"]["edges"].append({"from": 1, "to": 0, "weight": 1.0})
        good["params"]["seed"] = 4
        good_path = tmp_path / "good.json"
        good_path.write_text(json.dumps(good))
        design_path = tmp_path / "design.json"
        assert main(["synthesize", str(good_path), "-o", str(design_path)]) == 0
        capsys.readouterr()

        doc = json.loads(design_path.read_text())
        doc["gamma"] = 1e-12
        gutted_path = tmp_path / "gutted.json"
        gutted_path.write_text(json.dumps(doc))
        assert main(["verify", str(good_path), str(gutted_path)]) == 1
        capsys.readouterr()

        code = main([
            "simulate", str(good_path), str(gutted_path),
            "--t-final", "10.0", "--seed", "4", "-o", str(tmp_path / "t.csv"),
        ])
        assert code == 1
        summary = json.loads(capsys.readouterr().out)
        assert summary["fitted_rate"] < 0.1 * 1.0
