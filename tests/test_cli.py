import json
import os
import subprocess
import sys

import numpy as np
import pytest

import observer_kit
from observer_kit.cli import main


def write_config(path, *, alpha=1.0, edges=None, A=None, outputs=None, sim=None,
                 seed=7, n_nodes=2):
    A = A if A is not None else [[1.0, 0.0], [0.0, 2.0]]
    outputs = outputs if outputs is not None else [[[1.0, 0.0]], [[0.0, 1.0]]]
    edges = edges if edges is not None else [
        {"from": 0, "to": 1, "weight": 1.0},
        {"from": 1, "to": 0, "weight": 1.0},
    ]
    doc = {
        "system": {"n": len(A), "A": A, "outputs": [{"H": H} for H in outputs]},
        "graph": {"N": n_nodes, "edges": edges},
        "params": {"alpha": alpha, "seed": seed},
    }
    if sim is not None:
        doc["params"]["sim"] = sim
    path.write_text(json.dumps(doc))
    return path


def with_r(design_path, tmp_path, r):
    """Copy of a design file with its balancing weights replaced by r."""
    doc = json.loads(design_path.read_text())
    doc["r"] = r
    tampered = tmp_path / "tampered_r.json"
    tampered.write_text(json.dumps(doc))
    return tampered


def verify_and_simulate(config_path, design_path, tmp_path):
    """Exit codes of verify and of a short simulate on the same inputs."""
    return [
        main(["verify", str(config_path), str(design_path)]),
        main([
            "simulate", str(config_path), str(design_path),
            "--t-final", "1.0", "-o", str(tmp_path / "t.csv"),
        ]),
    ]


@pytest.fixture
def config_path(tmp_path):
    return write_config(tmp_path / "config.json")


@pytest.fixture
def design_path(tmp_path, config_path, capsys):
    out = tmp_path / "design.json"
    assert main(["synthesize", str(config_path), "-o", str(out)]) == 0
    capsys.readouterr()
    return out


class TestCheck:
    def test_valid_config(self, config_path, capsys):
        assert main(["check", str(config_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["strongly_connected"] is True
        assert report["joint_rank"] == 2
        assert report["per_node_v"] == [1, 1]

    def test_chain_graph(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "chain.json",
            edges=[{"from": 0, "to": 1, "weight": 1.0}],
        )
        assert main(["check", str(cfg)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["strongly_connected"] is False

    def test_jointly_unobservable(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "blind.json",
            outputs=[[[1.0, 0.0]], [[1.0, 0.0]]],
        )
        assert main(["check", str(cfg)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["joint_rank"] == 1

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check", str(bad)]) == 3

    def test_missing_file(self, tmp_path):
        assert main(["check", str(tmp_path / "absent.json")]) == 3

    def test_mismatched_n(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        doc = json.loads(write_config(tmp_path / "base.json").read_text())
        doc["system"]["n"] = 5
        cfg.write_text(json.dumps(doc))
        assert main(["check", str(cfg)]) == 3


class TestSynthesize:
    def test_writes_design_and_summary(self, config_path, tmp_path, capsys):
        out = tmp_path / "design.json"
        assert main(["synthesize", str(config_path), "-o", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["gamma"] >= 2 * 1.0 + 1.0
        design = json.loads(out.read_text())
        assert set(design) == {"gamma", "epsilon", "alpha", "r", "nodes"}
        assert set(design["nodes"][0]) == {"L", "M", "v", "P_io"}

    def test_alpha_override_monotone(self, config_path, tmp_path, capsys):
        gammas = []
        for alpha in (1.0, 4.0):
            out = tmp_path / f"design_{alpha}.json"
            code = main([
                "synthesize", str(config_path), "--alpha", str(alpha), "-o", str(out)
            ])
            assert code == 0
            gammas.append(json.loads(capsys.readouterr().out)["gamma"])
        assert gammas[1] > gammas[0]

    def test_assumption_failure(self, tmp_path):
        cfg = write_config(
            tmp_path / "blind.json", outputs=[[[1.0, 0.0]], [[1.0, 0.0]]]
        )
        assert main(["synthesize", str(cfg), "-o", str(tmp_path / "d.json")]) == 2

    def test_round_trip_bit_exact(self, config_path, design_path, tmp_path, capsys):
        from observer_kit.config import load_design, save_design

        design = load_design(design_path)
        second = tmp_path / "copy.json"
        save_design(design, second)
        assert design_path.read_text() == second.read_text()
        restored = load_design(second)
        for a, b in zip(restored.nodes, design.nodes):
            assert np.array_equal(a.L, b.L) and np.array_equal(a.M, b.M)


class TestVerify:
    def test_fresh_design_passes(self, config_path, design_path, capsys):
        assert main(["verify", str(config_path), str(design_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["abscissa"] <= -1.0 + 1e-6
        assert report["lyapunov_margin"] < 0

    def test_zeroed_coupling_fails(self, config_path, design_path, tmp_path, capsys):
        doc = json.loads(design_path.read_text())
        doc["gamma"] = 0.0
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        assert main(["verify", str(config_path), str(tampered)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False

    @pytest.mark.parametrize("r", [[1.9, 0.1], [0.0, 0.0]], ids=["skewed", "zero"])
    def test_r_that_does_not_balance_the_graph(self, config_path, design_path, tmp_path, r):
        tampered = with_r(design_path, tmp_path, r)
        assert verify_and_simulate(config_path, tampered, tmp_path) == [3, 3]

    def test_design_for_other_system(self, tmp_path, design_path, capsys):
        other = write_config(
            tmp_path / "other.json",
            A=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
            outputs=[[[1.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]]],
        )
        assert verify_and_simulate(other, design_path, tmp_path) == [3, 3]

    @pytest.mark.parametrize(
        "key, value",
        [("L", [[1.0, 0.0], [0.0, 1.0]]), ("M", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
         ("M", [[-1.0, 0.0], [0.0, 1.0]]), ("M", [[1.0, 0.5], [0.0, 1.0]])],
        ids=["L-2x2", "M-2x3", "M-indefinite", "M-asymmetric"],
    )
    def test_tampered_node_gains(self, config_path, design_path, tmp_path, key, value):
        doc = json.loads(design_path.read_text())
        doc["nodes"][0][key] = value
        tampered = tmp_path / "tampered_node.json"
        tampered.write_text(json.dumps(doc))
        assert verify_and_simulate(config_path, tampered, tmp_path) == [3, 3]

    def test_graph_not_strongly_connected(self, tmp_path, design_path):
        chain = write_config(
            tmp_path / "chain.json", edges=[{"from": 0, "to": 1, "weight": 1.0}]
        )
        assert verify_and_simulate(chain, design_path, tmp_path) == [2, 2]


class TestSimulate:
    def test_certified_decay(self, config_path, design_path, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code = main([
            "simulate", str(config_path), str(design_path),
            "--t-final", "8.0", "--dt", "0.001", "--seed", "3",
            "-o", str(trace),
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["fitted_rate"] >= 0.95 * summary["alpha"]
        header = trace.read_text().splitlines()[0]
        assert header == "t,e_global,e_1,e_2"

    def test_zero_initial_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "zero.json",
            sim={
                "t_final": 2.0, "dt": 0.001,
                "x0": [0.25, -0.5], "xhat0": [[0.25, -0.5], [0.25, -0.5]],
            },
        )
        out = tmp_path / "d.json"
        assert main(["synthesize", str(cfg), "-o", str(out)]) == 0
        capsys.readouterr()
        with pytest.warns(UserWarning, match="shrinking"):
            code = main([
                "simulate", str(cfg), str(out), "-o", str(tmp_path / "t.csv")
            ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["final_error"] <= 1e-10

    def test_zeroed_coupling_does_not_decay(self, config_path, design_path, tmp_path, capsys):
        doc = json.loads(design_path.read_text())
        doc["gamma"] = 0.0
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        code = main([
            "simulate", str(config_path), str(tampered),
            "--t-final", "10.0", "--seed", "3", "-o", str(tmp_path / "t.csv"),
        ])
        assert code == 1

    def test_state_columns_flag(self, config_path, design_path, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code = main([
            "simulate", str(config_path), str(design_path), "--states",
            "--t-final", "1.0", "-o", str(trace),
        ])
        assert code == 0
        header = trace.read_text().splitlines()[0].split(",")
        assert "x_1" in header and "xhat_2_2" in header

    def test_reruns_agree(self, config_path, design_path, tmp_path, capsys):
        codes, texts = [], []
        for run in range(2):
            out = tmp_path / f"trace{run}.csv"
            codes.append(main([
                "simulate", str(config_path), str(design_path),
                "--t-final", "4.0", "--seed", "9", "-o", str(out),
            ]))
            texts.append(out.read_text())
            capsys.readouterr()
        assert codes[0] == codes[1] == 0
        assert texts[0] == texts[1]


class TestDesignR:
    def test_short_r_is_an_input_error(self, config_path, design_path, tmp_path, capsys):
        tampered = with_r(design_path, tmp_path, [1.0])
        assert verify_and_simulate(config_path, tampered, tmp_path) == [3, 3]


def test_import_loads_no_optimize_or_sparse():
    # scipy.optimize and scipy.sparse would add to every command's start-up
    src = os.path.dirname(os.path.dirname(observer_kit.__file__))
    probe = (
        "import sys, observer_kit; print(sorted(m for m in sys.modules "
        "if m.startswith(('scipy.optimize', 'scipy.sparse'))))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
