import json
import math
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

    @pytest.mark.parametrize("command", ["check", "synthesize"])
    @pytest.mark.parametrize(
        "params",
        [{"alpha": math.inf}, {"margins": {"gamma": math.inf}}, {"g": [math.inf, 1.0]},
         {"g": [math.nan, 1.0]}, {"rank_rtol": math.nan}, {"rank_rtol": 10.0},
         {"rank_rtol": -1.0}],
        ids=["alpha-inf", "gamma-margin-inf", "g-inf", "g-nan", "rank-rtol-nan",
             "rank-rtol-10", "rank-rtol-negative"],
    )
    def test_config_numbers_out_of_range(self, tmp_path, command, params, capsys):
        cfg = tmp_path / "cfg.json"
        doc = json.loads(write_config(tmp_path / "base.json").read_text())
        doc["params"].update(params)
        cfg.write_text(json.dumps(doc))
        assert main([command, str(cfg), "-o", str(tmp_path / "out.json")]) == 3

    @pytest.mark.parametrize("key", ["A", "H"])
    def test_system_matrix_not_finite(self, tmp_path, key, capsys):
        cfg = tmp_path / "cfg.json"
        doc = json.loads(write_config(tmp_path / "base.json").read_text())
        system = doc["system"]
        (system["A"] if key == "A" else system["outputs"][0]["H"])[0][0] = math.nan
        cfg.write_text(json.dumps(doc))
        assert main(["check", str(cfg)]) == 3
        assert main(["synthesize", str(cfg), "-o", str(tmp_path / "d.json")]) == 3

    def test_wide_mode_spread_is_jointly_observable(self, tmp_path, capsys):
        modes = [0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0]
        cfg = write_config(
            tmp_path / "spread.json",
            A=np.diag(modes).tolist(),
            outputs=[[np.eye(8)[k].tolist()] for k in range(8)],
            edges=[{"from": k, "to": (k + 1) % 8, "weight": 1.0} for k in range(8)],
            n_nodes=8,
        )
        assert main(["check", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["joint_rank"] == 8


class TestSynthesize:
    def test_writes_design_and_summary(self, config_path, tmp_path, capsys):
        out = tmp_path / "design.json"
        assert main(["synthesize", str(config_path), "-o", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["gamma"] >= 2 * 1.0 + 1.0
        design = json.loads(out.read_text())
        assert set(design) == {"gamma", "epsilon", "alpha", "r", "nodes"}
        assert set(design["nodes"][0]) == {"L", "M", "v"}

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
        doc["gamma"] = 1e-12  # numerically zero; a design's gamma must be positive
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
         ("M", [[-1.0, 0.0], [0.0, 1.0]]), ("M", [[1.0, 0.5], [0.0, 1.0]]),
         ("L", [[math.nan], [0.0]]), ("M", [[math.nan, 0.0], [0.0, 1.0]]),
         ("v", -1), ("v", 3)],
        ids=["L-2x2", "M-2x3", "M-indefinite", "M-asymmetric", "L-nan", "M-nan",
             "v-negative", "v-exceeds-n"],
    )
    def test_tampered_node_gains(self, config_path, design_path, tmp_path, key, value):
        doc = json.loads(design_path.read_text())
        doc["nodes"][0][key] = value
        tampered = tmp_path / "tampered_node.json"
        tampered.write_text(json.dumps(doc))
        assert verify_and_simulate(config_path, tampered, tmp_path) == [3, 3]

    def test_p_io_of_older_design_files_is_ignored(self, config_path, design_path, tmp_path):
        doc = json.loads(design_path.read_text())
        doc["nodes"][0]["P_io"] = [[100.0]]
        older = tmp_path / "older_design.json"
        older.write_text(json.dumps(doc))
        assert verify_and_simulate(config_path, older, tmp_path) == [0, 0]

    def test_ill_conditioned_certificate_block_verifies(self, tmp_path, capsys):
        # node 0 sees all five modes through one output, and its
        # certificate block has condition 4.4e9; the design is sound
        cfg = write_config(
            tmp_path / "five.json",
            A=np.diag([-1.0, -0.375, 0.25, 0.875, 1.5]).tolist(),
            outputs=[[[1.0] * 5], [[1.0, 0.0, 0.0, 0.0, 0.0]]],
        )
        out = tmp_path / "d.json"
        assert main(["synthesize", str(cfg), "-o", str(out)]) == 0
        # node 0's gain has norm 1.6e5, so the step-size check warns
        with pytest.warns(UserWarning, match="too coarse"):
            assert verify_and_simulate(cfg, out, tmp_path) == [0, 0]

    @pytest.mark.parametrize(
        "scalars",
        [{"alpha": -5.0, "gamma": 0.01}, {"alpha": math.nan}, {"alpha": 0.0},
         {"gamma": 0.0}, {"gamma": math.inf}, {"epsilon": -1.0}, {"epsilon": math.nan}],
        ids=["unstable", "alpha-nan", "alpha-zero", "gamma-zero", "gamma-inf",
             "epsilon-negative", "epsilon-nan"],
    )
    def test_tampered_design_scalars(self, config_path, design_path, tmp_path, scalars):
        doc = json.loads(design_path.read_text())
        doc.update(scalars)
        tampered = tmp_path / "tampered_scalars.json"
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
        doc["gamma"] = 1e-12  # numerically zero; a design's gamma must be positive
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        code = main([
            "simulate", str(config_path), str(tampered),
            "--t-final", "10.0", "--seed", "3", "-o", str(tmp_path / "t.csv"),
        ])
        assert code == 1

    @pytest.mark.parametrize(
        "flag, value",
        [("--t-final", "inf"), ("--t-final", "nan"), ("--dt", "inf")],
        ids=["t-final-inf", "t-final-nan", "dt-inf"],
    )
    def test_run_length_not_finite(self, config_path, design_path, tmp_path, flag, value):
        code = main([
            "simulate", str(config_path), str(design_path), flag, value,
            "-o", str(tmp_path / "t.csv"),
        ])
        assert code == 3

    @pytest.mark.parametrize(
        "sim",
        [{"x0": [math.nan, 0.0]}, {"xhat0": [[math.inf, 0.0], [0.0, 0.0]]}],
        ids=["x0-nan", "xhat0-inf"],
    )
    def test_initial_state_not_finite(self, tmp_path, design_path, sim):
        cfg = write_config(tmp_path / "cfg.json", sim=sim)
        code = main(["simulate", str(cfg), str(design_path), "-o", str(tmp_path / "t.csv")])
        assert code == 3

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


class TestArguments:
    @pytest.mark.parametrize(
        "argv",
        [["synthesize", "{config}", "--alpha", "-1"],
         ["synthesize", "{config}", "--alpha", "nan"],
         ["verify", "{config}", "{design}", "--alpha", "nan"],
         ["verify", "{config}", "{design}", "--alpha", "-5"],
         ["verify", "{config}", "{design}", "--alpha", "abc"],
         ["simulate", "{config}"],
         ["frobnicate"]],
        ids=["synthesize-negative-alpha", "synthesize-nan-alpha", "verify-nan-alpha",
             "verify-negative-alpha", "verify-unparsable-alpha", "missing-design",
             "unknown-command"],
    )
    def test_bad_arguments_are_input_errors(self, config_path, design_path, argv, capsys):
        argv = [a.format(config=config_path, design=design_path) for a in argv]
        assert main(argv) == 3
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0


# Loaded scipy modules, as a Python expression for a probe interpreter.
SCIPY_MODULES = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"

# Runs cli.main on each argv of the JSON list in sys.argv[1] and prints, per
# command, its exit code and the scipy modules loaded so far.
CLI_PROBE = f"""
import contextlib, io, json, sys
from observer_kit.cli import main
report = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    report.append([argv[0], code, {SCIPY_MODULES}])
print(json.dumps(report))
"""


def run_probe(*args):
    """stdout of a fresh interpreter run with this package on its path."""
    src = os.path.dirname(os.path.dirname(observer_kit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", *args], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_import_loads_no_scipy():
    # importing scipy.linalg would add about 0.3 s to every command's start-up
    assert run_probe(f"import sys, observer_kit; print({SCIPY_MODULES})").strip() == "[]"


def test_only_synthesize_loads_scipy(tmp_path, capsys):
    cfg = str(write_config(
        tmp_path / "readme.json",
        sim={"t_final": 8.0, "dt": 0.001, "fit_window": [2.0, 8.0]},
    ))
    design = str(tmp_path / "design.json")
    assert main(["synthesize", cfg, "-o", design]) == 0
    capsys.readouterr()
    argvs = [
        ["check", cfg],
        ["verify", cfg, design],
        ["simulate", cfg, design, "-o", str(tmp_path / "trace.csv")],
        ["synthesize", cfg, "-o", str(tmp_path / "again.json")],
    ]
    report = json.loads(run_probe(CLI_PROBE, json.dumps(argvs)))
    assert [entry[:2] for entry in report] == [
        ["check", 0], ["verify", 0], ["simulate", 0], ["synthesize", 0]
    ]
    assert [entry[2] for entry in report[:3]] == [[], [], []]
    assert "scipy.linalg" in report[3][2]
