"""Near-degenerate inputs along four one-parameter families.

Each family walks the seed-1 n = N = 10 partial instance of the benchmark
ladder toward a degenerate case:

- the arc from node 3 to node 8, whose removal loses strong connectivity,
  with weight 10^-k;
- the output of node 7, which measures five modes, scaled by 10^-k;
- the plant matrix A scaled by 10^k;
- the decay rate alpha = 10^k.

At every point the command line ends in one of three documented ways:
the design certifies and `simulate` exits 0 on it at the default
settings; `synthesize` exits 2 and `check` also reports a violated
assumption; or `synthesize` exits 4, a numerical failure. An exception
that escapes `main` fails the test.
"""

import json
import warnings

import numpy as np
import pytest

from conftest import partial_instance
from observer_kit.cli import main
from observer_kit.decomp import SystemModel
from observer_kit.graph import Digraph
from test_cli import write_instance

MODEL, GRAPH = partial_instance(10)
BRIDGE = (8, 3)  # adjacency entry of the arc 3 -> 8
WEAK_NODE = 7


def outcome(tmp_path, capsys, model, g_net, alpha=1.0):
    """'certified', 'assumption' or 'numerical', as the command line ends
    on the instance at rate alpha; asserts the contract of each."""
    cfg = str(write_instance(tmp_path / "cfg.json", model, g_net, seed=1))
    design = str(tmp_path / "d.json")
    code = main(["synthesize", cfg, "--alpha", repr(alpha), "-o", design])
    capsys.readouterr()
    if code == 2:
        assert main(["check", cfg]) == 2
        return "assumption"
    if code == 4:
        return "numerical"
    assert code == 0
    assert main(["verify", cfg, design]) == 0
    assert json.loads(capsys.readouterr().out)["lyapunov_pass"] is True
    # an error that underflows to zero inside the fit window is reported by
    # a warning, and the run still exits 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", cfg, design, "-o", str(tmp_path / "t.csv")]) == 0
    assert all("shrinking the window" in str(w.message) for w in caught)
    return "certified"


@pytest.mark.parametrize("k", [0, 2, 4, 6, 8, 10, 12, 14, 16])
def test_weak_bridge(tmp_path, capsys, k):
    adjacency = GRAPH.adjacency.copy()
    assert adjacency[BRIDGE] > 0
    adjacency[BRIDGE] = 10.0**-k
    result = outcome(tmp_path, capsys, MODEL, Digraph(adjacency))
    if k <= 8:
        assert result == "certified"


@pytest.mark.parametrize("k", [0, 3, 6, 9, 12, 15])
def test_weak_output(tmp_path, capsys, k):
    outputs = list(MODEL.outputs)
    assert np.count_nonzero(outputs[WEAK_NODE]) == 5
    outputs[WEAK_NODE] = 10.0**-k * outputs[WEAK_NODE]
    model = SystemModel(A=MODEL.A, outputs=tuple(outputs))
    assert outcome(tmp_path, capsys, model, GRAPH) == "certified"


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_large_plant_matrix(tmp_path, capsys, k):
    model = SystemModel(A=10.0**k * MODEL.A, outputs=MODEL.outputs)
    assert outcome(tmp_path, capsys, model, GRAPH) == "certified"


@pytest.mark.parametrize("k", [-6, -3, -1, 0, 1, 2, 3])
def test_decay_rate(tmp_path, capsys, k):
    assert outcome(tmp_path, capsys, MODEL, GRAPH, alpha=10.0**k) == "certified"
