import filecmp
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import observer_kit
from conftest import battery_instances, random_partial_model, random_sc_digraph
from observer_kit.cli import main


MISSING = object()  # a key deleted from a document


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


def write_instance(path, model, g_net, seed):
    """write_config for a (model, graph) pair."""
    return write_config(
        path,
        A=model.A.tolist(),
        outputs=[H.tolist() for H in model.outputs],
        edges=[
            {"from": int(src), "to": int(dst), "weight": float(g_net.adjacency[dst, src])}
            for dst, src in zip(*np.nonzero(g_net.adjacency))
        ],
        n_nodes=g_net.node_count,
        seed=seed,
    )


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

    @pytest.mark.parametrize("command", ["check", "simulate"])
    @pytest.mark.parametrize(
        "section, key, value",
        [("params", "seed", "abc"), ("params", "seed", None), ("params", "seed", True),
         ("graph", "N", "two"), ("graph", "N", [2]), ("system", "n", "two"),
         (None, "params", [1]), ("params", "sim", None), ("params", "sim", False)],
        ids=["seed-string", "seed-null", "seed-bool", "N-string", "N-list", "n-string",
             "params-list", "sim-null", "sim-false"],
    )
    def test_config_of_wrong_type(self, tmp_path, design_path, command, section, key, value):
        doc = json.loads(write_config(tmp_path / "base.json").read_text())
        (doc if section is None else doc[section])[key] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = [command, str(cfg)]
        if command == "simulate":
            argv += [str(design_path), "-o", str(tmp_path / "t.csv")]
        assert main(argv) == 3

    @pytest.mark.parametrize("command", ["check", "simulate"])
    @pytest.mark.parametrize("end", ["from", "to"])
    @pytest.mark.parametrize("value", [0.9, 1.7, 1.0, "1", True, None])
    def test_edge_end_of_wrong_type(self, tmp_path, design_path, command, end, value):
        # a fractional node index was once truncated to a node silently
        doc = json.loads(write_config(tmp_path / "base.json").read_text())
        doc["graph"]["edges"][0][end] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = [command, str(cfg)]
        if command == "simulate":
            argv += [str(design_path), "-o", str(tmp_path / "t.csv")]
        assert main(argv) == 3

    @pytest.mark.parametrize("command", ["check", "synthesize", "verify", "simulate"])
    @pytest.mark.parametrize(
        "path, value",
        [(("params", "alpha"), True), (("params", "alpha"), "1.0"),
         (("graph", "edges", 0, "weight"), "1.0"),
         (("system", "A"), [[True, False], [False, True]]),
         (("system", "outputs", 0, "H"), [["1.0", "0.0"]]),
         (("params", "sim"), {"x0": ["0.5", "0.5"]}), (("params", "sim"), {"t_final": "8.0"}),
         (("params", "sim"), {"dt": True})],
        ids=["alpha-bool", "alpha-string", "weight-string", "A-bools", "H-strings", "x0-strings",
             "t-final-string", "dt-bool"],
    )
    def test_config_number_of_wrong_type(self, tmp_path, design_path, command, path, value):
        # numbers were once read through float(), which takes true and "1.0"
        doc = json.loads(write_config(tmp_path / "base.json").read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = str(tmp_path / "out")
        argv = {
            "check": ["check", str(cfg)],
            "synthesize": ["synthesize", str(cfg), "-o", out],
            "verify": ["verify", str(cfg), str(design_path)],
            "simulate": ["simulate", str(cfg), str(design_path), "-o", out],
        }[command]
        assert main(argv) == 3

    @pytest.mark.parametrize("command", ["check", "synthesize"])
    @pytest.mark.parametrize("params", [{"alpha": math.inf}], ids=["alpha-inf"])
    def test_config_numbers_out_of_range(self, tmp_path, command, params, capsys):
        cfg = tmp_path / "cfg.json"
        doc = json.loads(write_config(tmp_path / "base.json").read_text())
        doc["params"].update(params)
        cfg.write_text(json.dumps(doc))
        assert main([command, str(cfg), "-o", str(tmp_path / "out.json")]) == 3

    @pytest.mark.parametrize("command", ["check", "synthesize"])
    @pytest.mark.parametrize(
        "edges, message",
        [([{"from": 0, "to": 1, "weight": math.inf}, {"from": 1, "to": 0, "weight": 1.0}],
          "edge (0, 1) must have a finite positive weight, got inf"),
         ([{"from": 0, "to": 1, "weight": 1.0}, {"from": 0, "to": 1, "weight": 5.0},
           {"from": 1, "to": 0, "weight": 1.0}],
          "edge (0, 1) is listed twice"),
         ([{"from": 0, "to": 1, "weight": math.nan}, {"from": 1, "to": 0, "weight": 1.0}],
          "edge (0, 1) must have a finite positive weight, got nan"),
         ([{"from": 0, "to": 1, "weight": 1.0}, {"from": 1, "to": 0, "weight": 1.0},
           {"from": 1, "to": 0, "weight": 1.0}],
          "edge (1, 0) is listed twice")],
        ids=["weight-inf", "repeated-edge", "weight-nan", "repeated-edge-same-weight"],
    )
    def test_bad_edge_list(self, tmp_path, capsys, command, edges, message):
        # an infinite weight once exited 4 as a numerical failure, and a
        # repeated edge once silently took the weight listed last
        cfg = write_config(tmp_path / "cfg.json", edges=edges)
        assert main([command, str(cfg), "-o", str(tmp_path / "out.json")]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "synthesize"])
    @pytest.mark.parametrize(
        "key, value",
        [("margins", [1]), ("margins", None), ("margins", []), ("margins", {"gamma": "1.5"}),
         ("margins", {"gamma": math.inf}), ("rank_rtol", "1e-10"), ("rank_rtol", math.nan),
         ("rank_rtol", 10.0), ("rank_rtol", -1.0)],
        ids=["margins-list", "margins-null", "margins-empty-list", "gamma-margin-string",
             "gamma-margin-inf", "rank-rtol-string", "rank-rtol-nan", "rank-rtol-10",
             "rank-rtol-negative"],
    )
    def test_retired_knobs_of_any_value_are_ignored(self, config_path, design_path, tmp_path,
                                                     capsys, command, key, value):
        # params.margins and params.rank_rtol are read by nothing, so values
        # the loader once rejected with exit 3 give the report and the design
        # of a config without them
        assert main(["check", str(config_path)]) == 0
        clean_report = capsys.readouterr().out
        doc = json.loads(config_path.read_text())
        doc["params"][key] = value
        cfg = tmp_path / "retired.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "retired_design.json"
        assert main([command, str(cfg), "-o", str(out)]) == 0
        if command == "check":
            assert capsys.readouterr().out == clean_report
        else:
            assert out.read_bytes() == design_path.read_bytes()

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
        assert set(summary) == {"gamma", "epsilon", "alpha", "design_path"}
        assert summary["gamma"] >= 2 * 1.0 + 1.0
        design = json.loads(out.read_text())
        assert set(design) == {"gamma", "epsilon", "alpha", "r", "nodes"}
        assert [set(node) for node in design["nodes"]] == [{"L", "M"}] * 2

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

    def test_fast_decay_rate_on_a_battery_instance(self, tmp_path, capsys):
        # battery seed 20240817, instance 11 (n = 2, N = 3): a per-node gate
        # refused this design at alpha = 10 with a margin of +1.5e-8
        model, g_net = battery_instances(20240817, count=12)[11]
        cfg = write_instance(tmp_path / "battery11.json", model, g_net, seed=7)
        design = tmp_path / "d.json"
        assert main(["synthesize", str(cfg), "--alpha", "10", "-o", str(design)]) == 0
        assert main(["verify", str(cfg), str(design)]) == 0
        capsys.readouterr()
        assert main(["simulate", str(cfg), str(design), "-o", str(tmp_path / "t.csv")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["alpha"] == 10.0 and summary["fitted_rate"] >= 0.95 * 10.0

    def test_assumption_failure(self, tmp_path):
        cfg = write_config(
            tmp_path / "blind.json", outputs=[[[1.0, 0.0]], [[1.0, 0.0]]]
        )
        assert main(["synthesize", str(cfg), "-o", str(tmp_path / "d.json")]) == 2

    def test_singular_gramian_of_an_observable_plant_is_a_numerical_failure(self, tmp_path):
        # node 0 measures the sum of diag(1..5), node 1 nothing: both
        # assumptions hold, but node 0's Bass Gramian has condition 1.7e11
        cfg = write_config(
            tmp_path / "sum5.json",
            A=np.diag([1.0, 2.0, 3.0, 4.0, 5.0]).tolist(),
            outputs=[[[1.0] * 5], [[0.0] * 5]],
        )
        assert main(["check", str(cfg)]) == 0
        assert main(["synthesize", str(cfg), "-o", str(tmp_path / "d.json")]) == 4

    @pytest.mark.parametrize("command", ["check", "synthesize"])
    def test_decomposition_failure_names_the_node(self, tmp_path, capsys, command):
        # node 0 measures the sum of diag(1..9), node 1 nothing: the rank
        # decision on node 0's observability matrix reads its 9 modes as
        # fewer, and the rotated blocks miss their invariants
        cfg = write_config(
            tmp_path / "sum9.json",
            A=np.diag(np.arange(1.0, 10.0)).tolist(),
            outputs=[[[1.0] * 9], [[0.0] * 9]],
        )
        args = [command, str(cfg)] + (["-o", str(tmp_path / "d.json")] if command == "synthesize" else [])
        assert main(args) == 4
        err = capsys.readouterr().err
        assert "node 0: observability decomposition violated its invariants: " in err
        assert "upper-right block residual 1.501e+00; ||H T2|| = 1.909e-02" in err

    @pytest.mark.parametrize("g", [[2.0, 3.0], [True], "weights"], ids=["weights", "bool", "string"])
    def test_keys_of_older_configs_are_ignored(self, config_path, design_path, tmp_path, g):
        # params.g, params.margins, params.rank_rtol and params.sim.seed set
        # nothing any more: a config that carries them, g of any type, gives
        # the design and the trace of one without; the seed is params.seed
        doc = json.loads(config_path.read_text())
        doc["params"]["g"] = g
        doc["params"]["margins"] = {"epsilon": 0.8, "gamma": 1.1}
        doc["params"]["rank_rtol"] = 1e-10
        doc["params"]["sim"] = {"seed": 3}
        older = tmp_path / "older_config.json"
        older.write_text(json.dumps(doc))
        out = tmp_path / "older_design.json"
        assert main(["synthesize", str(older), "-o", str(out)]) == 0
        assert out.read_text() == design_path.read_text()
        traces = []
        for cfg in (config_path, older):
            traces.append(tmp_path / f"{cfg.stem}.csv")
            assert main(["simulate", str(cfg), str(out), "-o", str(traces[-1])]) == 0
        assert filecmp.cmp(*traces, shallow=False)

    def test_round_trip_bit_exact(self, config_path, design_path, tmp_path, capsys):
        from observer_kit.config import load_design, save_design

        design = load_design(design_path)
        second = tmp_path / "copy.json"
        save_design(design, second)
        assert design_path.read_text() == second.read_text()
        restored = load_design(second)
        for a, b in zip(restored.nodes, design.nodes):
            assert np.array_equal(a.L, b.L) and np.array_equal(a.M, b.M)


    @pytest.mark.parametrize("command", ["synthesize", "verify", "simulate"])
    def test_huge_edge_weights_name_the_overflow(self, config_path, design_path, tmp_path,
                                                 capsys, command):
        # both arc weights 1e308 pass check, but the mirror Laplacian
        # overflows: each command that balances the graph exits 4 naming
        # that, where numpy once printed RuntimeWarnings and the message
        # blamed a zero eigenvalue that is not simple
        huge = [{"from": 0, "to": 1, "weight": 1e308}, {"from": 1, "to": 0, "weight": 1e308}]
        cfg = write_config(tmp_path / "huge.json", edges=huge)
        assert main(["check", str(cfg)]) == 0
        args = {
            "synthesize": [str(cfg), "-o", str(tmp_path / "out.json")],
            "verify": [str(cfg), str(design_path)],
            "simulate": [str(cfg), str(design_path), "-o", str(tmp_path / "t.csv")],
        }[command]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, *args]) == 4
        err = capsys.readouterr().err
        assert "edge weights too large for the mirror Laplacian" in err and "nan" not in err

    def test_huge_alpha_certifies_without_warnings(self, config_path, tmp_path, capsys):
        # at alpha = 1e160 the squared norm of F overflowed, and synthesize
        # printed a RuntimeWarning and exited 4 blaming F's spectrum; the
        # squared norms of E overflowed too, and verify read E as symmetric
        out = tmp_path / "huge-alpha.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["synthesize", str(config_path), "--alpha", "1e160", "-o", str(out)]) == 0
            capsys.readouterr()
            assert main(["verify", str(config_path), str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True and report["lyapunov_pass"] is True
        assert report["abscissa"] <= -1e160

    def test_overflowing_shift_is_named(self, config_path, tmp_path, capsys):
        # alpha + beta = 2 alpha + 1 + ||A_io||_F passes the largest float
        out = tmp_path / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["synthesize", str(config_path), "--alpha", "1e308", "-o", str(out)]) == 4
        err = capsys.readouterr().err
        assert "pole-placement shift alpha + beta" in err and "overflows at alpha = 1e+308" in err
        assert "non-finite" not in err and not out.exists()

    @pytest.mark.parametrize("alpha", ["2e307", "4.4e307", "4.6e307", "8.98e307"])
    def test_overflow_below_the_shift_limit_is_named(self, config_path, tmp_path, capsys, alpha):
        # alpha + beta is finite here, but the certificate's products
        # overflow (up to 4.4e307) or the diagonal 2 (alpha + beta) of the
        # Bass equation does (from 4.5e307); numpy printed RuntimeWarnings,
        # and the exit 4 blamed non-finite entries or a Lyapunov residual
        out = tmp_path / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["synthesize", str(config_path), "--alpha", alpha, "-o", str(out)]) == 4
        err = capsys.readouterr().err
        assert f"overflows at alpha = {float(alpha):.6g}" in err
        assert "non-finite" not in err and "residual" not in err and not out.exists()

    def test_huge_plant_certifies_without_warnings(self, tmp_path, capsys):
        # the squares of A's entries overflow: check printed numpy
        # RuntimeWarnings from norm(A) and the kernel residual, and
        # synthesize exited 4 blaming alpha for an overflowing ||A_io||_F;
        # taken without overflow, beta = 2e160 + 2 and the design certifies
        cfg = write_config(tmp_path / "huge.json", A=[[1e160, 0.0], [0.0, 2e160]])
        out = tmp_path / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["check", str(cfg)]) == 0
            assert main(["synthesize", str(cfg), "-o", str(out)]) == 0
            capsys.readouterr()
            assert main(["verify", str(cfg), str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True and report["lyapunov_pass"] is True
        assert report["abscissa"] <= -1e158

    def test_overflowing_plant_norm_is_named(self, tmp_path, capsys):
        # alpha + beta = 2 alpha + 1 + ||A_io||_F passes the largest float
        # at alpha = 1 because ||A_io||_F = 1e308 does
        cfg = write_config(tmp_path / "huge.json", A=[[1e308]], outputs=[[[1.0]], [[1.0]]])
        out = tmp_path / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["check", str(cfg)]) == 0
            assert main(["synthesize", str(cfg), "-o", str(out)]) == 4
        err = capsys.readouterr().err
        assert "pole-placement shift alpha + beta" in err and "||A_io||_F = 1e+308" in err
        assert not out.exists()

    def test_bass_diagonal_overflow_is_named(self, tmp_path, capsys):
        # alpha + beta = 6e307 + 3 is finite, but the Bass equation's
        # Kronecker diagonal 2 (||A_io||_F + alpha + beta) is not; numpy
        # printed RuntimeWarnings and the exit 4 blamed a Lyapunov residual
        cfg = write_config(tmp_path / "huge.json", A=[[6e307]], outputs=[[[1.0]], [[1.0]]])
        out = tmp_path / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["check", str(cfg)]) == 0
            assert main(["synthesize", str(cfg), "-o", str(out)]) == 4
        err = capsys.readouterr().err
        assert "||A_io||_F = 6e+307" in err and "overflows" in err
        assert "residual" not in err and not out.exists()

    def test_rank_threshold_of_a_huge_plant_is_finite(self, tmp_path, capsys):
        # sigma_max * size * RANK_RTOL overflowed left to right, and check
        # and synthesize exited 4 blaming the observability decomposition
        cfg = write_config(tmp_path / "huge.json", A=[[1e307, 0.0], [0.0, 1.7e308]])
        out = tmp_path / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["check", str(cfg)]) == 0
            code = main(["synthesize", str(cfg), "-o", str(out)])
        err = capsys.readouterr().err
        assert "decomposition" not in err
        assert code == 0 or (code == 4 and "overflows" in err and not out.exists())

    @pytest.mark.parametrize("alpha", ["1e307", "1.9e307"])
    def test_huge_alpha_below_the_overflow_certifies(self, config_path, tmp_path, capsys, alpha):
        # from 1.1e307 the sum Z + Z.T of the final certificate overflowed,
        # with a RuntimeWarning and "fails its certificate (margin -inf)";
        # Z/2 + Z.T/2 does not
        out = tmp_path / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["synthesize", str(config_path), "--alpha", alpha, "-o", str(out)]) == 0
            capsys.readouterr()
            assert main(["verify", str(config_path), str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True and report["lyapunov_pass"] is True


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
         ("M", [[1.0, 1.0], [1.0, 1.0]]),
         ("L", [[math.nan], [0.0]]), ("M", [[math.nan, 0.0], [0.0, 1.0]])],
        ids=["L-2x2", "M-2x3", "M-indefinite", "M-asymmetric", "M-singular", "L-nan", "M-nan"],
    )
    def test_tampered_node_gains(self, config_path, design_path, tmp_path, key, value):
        doc = json.loads(design_path.read_text())
        doc["nodes"][0][key] = value
        tampered = tmp_path / "tampered_node.json"
        tampered.write_text(json.dumps(doc))
        assert verify_and_simulate(config_path, tampered, tmp_path) == [3, 3]

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    @pytest.mark.parametrize("term", ["coupling", "injection"])
    def test_overflowing_error_matrix_is_named(self, tmp_path, capsys, command, term):
        # gamma (R L)_ij M_i = 1e300 * 1e300, or L_0 H_0 = 1e308 * 10,
        # overflows: numpy printed a RuntimeWarning, verify exited 4 with
        # "non-finite entries" and simulate exited 1 at step 1
        scale = 1e300 if term == "coupling" else 1.0
        config_path = write_config(tmp_path / "config.json",
                                   outputs=[[[10.0, 0.0]], [[0.0, 1.0]]])
        M = (scale * np.eye(2)).tolist()
        L_0 = [[1.0], [0.0]] if term == "coupling" else [[1e308], [0.0]]
        design = tmp_path / "overflow.json"
        design.write_text(json.dumps({
            "gamma": scale, "epsilon": 0.9, "alpha": 1.0, "r": [1.0, 1.0],
            "nodes": [{"L": L_0, "M": M}, {"L": [[0.0], [1.0]], "M": M}],
        }))
        args = [str(config_path), str(design)]
        if command == "simulate":
            args += ["-o", str(tmp_path / "t.csv")]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, *args]) == 4
        err = capsys.readouterr().err
        assert "error matrix overflows" in err and "non-finite" not in err

    def test_weighting_indefinite_in_one_coordinate_group(self, tmp_path, capsys):
        # the n = N = 10 ladder rung splits into ten single-coordinate
        # groups, and every M_i is diagonal; node 3's M, still symmetric,
        # turns indefinite in the group of coordinate 7 only
        rng = np.random.default_rng(1)
        g_net = random_sc_digraph(rng, 10)
        model = random_partial_model(rng, 10, 10)
        cfg = write_instance(tmp_path / "rung10.json", model, g_net, seed=1)
        design = tmp_path / "d.json"
        assert main(["synthesize", str(cfg), "-o", str(design)]) == 0
        doc = json.loads(design.read_text())
        M = np.array(doc["nodes"][3]["M"])
        assert np.array_equal(M, np.diag(np.diag(M))) and np.all(np.diag(M) > 0)
        M[7, 7] = -M[7, 7]
        doc["nodes"][3]["M"] = M.tolist()
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        capsys.readouterr()
        assert verify_and_simulate(cfg, tampered, tmp_path) == [3, 3]
        assert "node 3: M is not symmetric positive definite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "node, key, value",
        [(True, "L", [["1.0"], ["0.0"]]), (False, "gamma", "20.0"), (False, "epsilon", True),
         (False, "r", [True, True]), (False, None, None), (False, "nodes", ["node 0", "node 1"]),
         (False, "gamma", MISSING)],
        ids=["L-strings", "gamma-string", "epsilon-bool", "r-bools", "root-array",
             "node-string", "gamma-missing"],
    )
    def test_design_number_of_wrong_type(self, config_path, design_path, tmp_path, node, key,
                                         value):
        # key None wraps the whole document in an array
        doc = json.loads(design_path.read_text())
        target = doc["nodes"][0] if node else doc
        if key is None:
            doc = [doc]
        elif value is MISSING:
            del target[key]
        else:
            target[key] = value
        tampered = tmp_path / "tampered_type.json"
        tampered.write_text(json.dumps(doc))
        assert verify_and_simulate(config_path, tampered, tmp_path) == [3, 3]

    def test_p_io_of_older_design_files_is_ignored(self, config_path, design_path, tmp_path):
        doc = json.loads(design_path.read_text())
        doc["nodes"][0]["P_io"] = [[100.0]]
        older = tmp_path / "older_design.json"
        older.write_text(json.dumps(doc))
        assert verify_and_simulate(config_path, older, tmp_path) == [0, 0]

    @pytest.mark.parametrize("v", [(1, 1), (2, 0), (-1, 3), (0.9, True), ("1", None)])
    def test_v_and_p_io_of_older_design_files_are_ignored(self, config_path, design_path,
                                                           tmp_path, capsys, v):
        # no certificate reads a node's v: any value loads and verifies
        # with the report of the clean file
        assert main(["verify", str(config_path), str(design_path)]) == 0
        clean = capsys.readouterr().out
        doc = json.loads(design_path.read_text())
        for node, v_i in zip(doc["nodes"], v):
            node["v"], node["P_io"] = v_i, [[100.0]]
        older = tmp_path / "older_design.json"
        older.write_text(json.dumps(doc))
        assert main(["verify", str(config_path), str(older)]) == 0
        assert capsys.readouterr().out == clean

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

    def test_growing_error_at_a_tiny_rate_fails(self, tmp_path, capsys):
        # the consensus mode of this scalar pair grows at +5e-7 per unit time;
        # an additive abscissa slack of 1e-6 passed it at alpha = 1e-9
        cfg = write_config(tmp_path / "pair.json", A=[[0.3]], outputs=[[[1.0]], [[1.0]]])
        node = {"L": [[0.3 - 5e-7]], "M": [[0.7]]}
        design = tmp_path / "d.json"
        design.write_text(json.dumps({
            "gamma": 2.0, "epsilon": 0.9, "alpha": 1e-9, "r": [1.0, 1.0], "nodes": [node, node],
        }))
        assert main(["verify", str(cfg), str(design)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False and report["abscissa"] > 0

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

    def test_step_count_numpy_cannot_index(self, config_path, design_path, tmp_path, capsys):
        # 1e301 steps: rejected with the sim settings, before any array is made
        code = main([
            "simulate", str(config_path), str(design_path), "--dt", "1e-300",
            "-o", str(tmp_path / "t.csv"),
        ])
        assert code == 3
        assert "bad sim settings" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize(
        "sim",
        [{"x0": [math.nan, 0.0]}, {"xhat0": [[math.inf, 0.0], [0.0, 0.0]]}],
        ids=["x0-nan", "xhat0-inf"],
    )
    def test_initial_state_not_finite(self, tmp_path, design_path, sim):
        cfg = write_config(tmp_path / "cfg.json", sim=sim)
        code = main(["simulate", str(cfg), str(design_path), "-o", str(tmp_path / "t.csv")])
        assert code == 3

    @pytest.mark.parametrize(
        "argv, sim, seed",
        [(["--seed", "-1"], None, 7), ([], None, -1), ([], {"record_stride": 2.5}, 7)],
        ids=["seed-flag-negative", "config-seed-negative", "record-stride-2.5"],
    )
    def test_bad_seed_or_stride(self, tmp_path, design_path, argv, sim, seed):
        cfg = write_config(tmp_path / "cfg.json", sim=sim, seed=seed)
        code = main([
            "simulate", str(cfg), str(design_path), "-o", str(tmp_path / "t.csv"), *argv
        ])
        assert code == 3

    @pytest.mark.parametrize("seed", [1.5, "abc", -1, 3], ids=["1.5", "string", "negative", "3"])
    def test_sim_seed_of_any_value_is_ignored(self, config_path, design_path, tmp_path, seed):
        # the seed of a run is --seed, else params.seed: params.sim.seed,
        # once a second way to set it, changes no trace
        traces = []
        for sim in ({}, {"seed": seed}):
            cfg = write_config(tmp_path / f"cfg{len(traces)}.json", sim=sim)
            traces.append(tmp_path / f"t{len(traces)}.csv")
            assert main(["simulate", str(cfg), str(design_path), "--t-final", "1.0",
                         "-o", str(traces[-1])]) == 0
        assert traces[0].read_bytes() == traces[1].read_bytes()

    def test_certified_ladder_rung_past_runge_kutta_limit(self, tmp_path, capsys):
        # the seed-1 n = N = 30 partial instance certifies with
        # dt * rho(E) = 3.19 at the default dt, where classical RK4 diverged
        rng = np.random.default_rng(1)
        g_net = random_sc_digraph(rng, 30)
        model = random_partial_model(rng, 30, 30)
        cfg = write_instance(tmp_path / "rung30.json", model, g_net, seed=1)
        design = tmp_path / "d.json"
        assert main(["synthesize", str(cfg), "-o", str(design)]) == 0
        assert main(["verify", str(cfg), str(design)]) == 0
        capsys.readouterr()
        assert main(["simulate", str(cfg), str(design), "-o", str(tmp_path / "t.csv")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["fitted_rate"] >= 0.95 * summary["alpha"]

    def test_fast_unstable_plant_simulates(self, tmp_path, capsys):
        # x' = 80 x overflows at t = 8.89 of the default t_final = 10, but
        # the error the certificate speaks of never reads x
        cfg = write_config(tmp_path / "fast.json", A=[[80.0, 0.0], [0.0, 2.0]])
        design = tmp_path / "d.json"
        assert main(["synthesize", str(cfg), "-o", str(design)]) == 0
        capsys.readouterr()
        assert main(["verify", str(cfg), str(design)]) == 0
        abscissa = json.loads(capsys.readouterr().out)["abscissa"]
        assert abscissa == pytest.approx(-3.488, abs=1e-3)
        assert main(["simulate", str(cfg), str(design), "-o", str(tmp_path / "t.csv")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["fitted_rate"] == pytest.approx(-abscissa, rel=1e-3)

    def test_states_of_an_overflowing_plant(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "fast.json", A=[[80.0, 0.0], [0.0, 2.0]])
        design = tmp_path / "d.json"
        assert main(["synthesize", str(cfg), "-o", str(design)]) == 0
        capsys.readouterr()
        trace = tmp_path / "t.csv"
        code = main(["simulate", str(cfg), str(design), "--states", "-o", str(trace)])
        assert code == 1
        # x_k = x_0 exp(80 dt k) with x_0 the seed-7 draw of integrate
        x0 = np.random.default_rng(7).uniform(-1.0, 1.0, 2)[0]
        expected = math.floor((math.log(np.finfo(float).max) - math.log(abs(x0))) / 0.08) + 1
        assert f"plant state x became non-finite at step {expected} " in capsys.readouterr().err
        assert not trace.exists()

    def test_error_above_the_root_of_the_largest_float(self, tmp_path, capsys):
        # e' = 50 e grows to e^500 = 1.4e217: finite, so the summary is
        # valid JSON, though the error's square overflows from t = 7.1 on
        cfg = tmp_path / "one.json"
        cfg.write_text(json.dumps({
            "system": {"n": 1, "A": [[0.0]], "outputs": [{"H": [[1.0]]}]},
            "graph": {"N": 1, "edges": []},
            "params": {"alpha": 1.0, "sim": {"x0": [0.0], "xhat0": [[1.0]], "dt": 0.01}},
        }))
        design = tmp_path / "d.json"
        design.write_text(json.dumps({
            "gamma": 1.0, "epsilon": 0.9, "alpha": 1.0, "r": [1.0],
            "nodes": [{"L": [[-50.0]], "M": [[1.0]]}],
        }))
        trace = tmp_path / "t.csv"
        assert main(["simulate", str(cfg), str(design), "-o", str(trace)]) == 1

        def no_constant(name):
            raise AssertionError(f"{name} in the summary")

        summary = json.loads(capsys.readouterr().out, parse_constant=no_constant)
        assert summary["fitted_rate"] == pytest.approx(-50.0, rel=1e-9)
        assert summary["final_error"] == pytest.approx(math.exp(500.0), rel=1e-10)
        table = np.loadtxt(trace, delimiter=",", skiprows=1)
        assert np.all(np.isfinite(table))

    def test_strided_states_match_the_run(self, tmp_path, capsys):
        from observer_kit.config import build_sim_config, load_config, load_design
        from observer_kit.sim import integrate

        cfg = write_config(
            tmp_path / "strided.json",
            sim={"t_final": 8.0, "dt": 0.001, "fit_window": [2.0, 8.0], "record_stride": 7},
        )
        design = tmp_path / "d.json"
        assert main(["synthesize", str(cfg), "-o", str(design)]) == 0
        trace = tmp_path / "t.csv"
        assert main(["simulate", str(cfg), str(design), "--states", "-o", str(trace)]) == 0
        header = trace.read_text().splitlines()[0].split(",")
        table = np.loadtxt(trace, delimiter=",", skiprows=1)
        assert table.shape == (1144, len(header))
        loaded = load_config(cfg)
        run = integrate(build_sim_config(loaded), loaded.model, loaded.graph, load_design(design))
        x = table[:, header.index("x_1") :][:, :2]
        xhat = table[:, header.index("xhat_1_1") :]
        assert np.array_equal(x, run.x)
        assert np.array_equal(xhat, run.xhat.reshape(1144, 4))

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

    @pytest.mark.parametrize("rel, codes", [(1e-12, [0, 0]), (1e-8, [3, 3])], ids=["1e-12", "1e-8"])
    def test_r_agrees_with_the_graph_to_1e_9(self, config_path, design_path, tmp_path, capsys,
                                             rel, codes):
        # the README graph balances to r = [1, 1]; a design's r may differ
        # from it by 1e-9 relative, no more
        tampered = with_r(design_path, tmp_path, [1.0 + rel, 1.0 - rel])
        assert verify_and_simulate(config_path, tampered, tmp_path) == codes
        if codes[0]:
            assert "does not balance the graph" in capsys.readouterr().err


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


# Runs cli.main on each argv of the JSON list in sys.argv[1] and prints, per
# command, the modules it loaded.
LOADED_PROBE = """
import contextlib, io, json, sys
from observer_kit.cli import main
report = []
for argv in json.loads(sys.argv[1]):
    before = set(sys.modules)
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
    report.append(sorted(set(sys.modules) - before))
print(json.dumps(report))
"""


def test_design_commands_load_no_module(tmp_path):
    # simulate's CSV workers are threads from `threading`, which numpy
    # loads; a pool module imported with the package would cost every
    # command start-up. argparse's gettext loads locale on the first parse
    cfg = str(write_config(tmp_path / "readme.json"))
    design = str(tmp_path / "design.json")
    argvs = [["check", cfg], ["synthesize", cfg, "-o", design], ["verify", cfg, design]]
    check, synthesize, verify = json.loads(run_probe(LOADED_PROBE, json.dumps(argvs)))
    assert set(check) <= {"locale", "_locale"} and synthesize == verify == []


def test_import_builds_no_csv_table():
    # the CSV formatter's tables are made on the first write, not at import
    probe = "import observer_kit.sim as sim; print(sim._decimal_tables.cache_info().currsize)"
    assert run_probe(probe).strip() == "0"


# Makes every later `import scipy` in a probe interpreter raise ImportError.
BLOCK_SCIPY = "import sys\nsys.modules['scipy'] = None\n"


@pytest.mark.parametrize("prelude", ["", BLOCK_SCIPY], ids=["scipy-present", "scipy-blocked"])
def test_no_command_loads_scipy(tmp_path, prelude):
    # the runtime needs numpy only; importing scipy.linalg would add about
    # 0.3 s to a command's start-up
    cfg = str(write_config(
        tmp_path / "readme.json",
        sim={"t_final": 8.0, "dt": 0.001, "fit_window": [2.0, 8.0]},
    ))
    design = str(tmp_path / "design.json")
    argvs = [
        ["check", cfg],
        ["synthesize", cfg, "-o", design],
        ["verify", cfg, design],
        ["simulate", cfg, design, "-o", str(tmp_path / "trace.csv")],
    ]
    report = json.loads(run_probe(prelude + CLI_PROBE, json.dumps(argvs)))
    assert [entry[:2] for entry in report] == [
        ["check", 0], ["synthesize", 0], ["verify", 0], ["simulate", 0]
    ]
    if not prelude:
        assert [entry[2] for entry in report] == [[], [], [], []]
