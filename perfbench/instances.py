"""Inputs of the benchmark workloads, generated from a seed.

The random generators repeat those of the package's test suite
(``tests/conftest.py``) draw for draw, so the battery at its default seed
is the acceptance battery instance for instance. They are kept here so the
benchmark reads nothing from the test suite.

Random per-node output blocks carry ceil(n/2) to ceil(n/2)+1 rows; with
fewer rows the stacked observability matrices of random pairs become
near-degenerate. The partial family covers the genuinely partial cases.
"""

import numpy as np

from observer_kit import Digraph, SystemModel, joint_observability_rank

BATTERY_SEED = 20240817
BATTERY_SIZE = 100
# The n = N partial plants and graphs of the ladder and of the cli
# workload come from this seed whatever the run's seed is; the run's seed
# draws the simulations' initial states. At seed 1 every rung certifies,
# the n = N = 10 config simulates cleanly through the CLI, and the
# n = N = 30 and 40 rungs show the RK4 divergence of certified designs.
INSTANCE_SEED = 1
LADDER_SIZES = (2, 10, 20, 30, 40)
CLI_PARTIAL_SIZE = 10

# The 2-node example config of the package README.
README_CONFIG = {
    "system": {
        "n": 2,
        "A": [[1.0, 0.0], [0.0, 2.0]],
        "outputs": [{"H": [[1.0, 0.0]]}, {"H": [[0.0, 1.0]]}],
    },
    "graph": {
        "N": 2,
        "edges": [
            {"from": 0, "to": 1, "weight": 1.0},
            {"from": 1, "to": 0, "weight": 1.0},
        ],
    },
    "params": {
        "alpha": 1.0,
        "seed": 7,
        "sim": {"t_final": 8.0, "dt": 0.001, "fit_window": [2.0, 8.0]},
    },
}


def random_sc_digraph(rng, n_nodes, weight_range=(0.5, 2.0), extra_edge_prob=0.3):
    """Strongly connected random digraph: a random directed Hamiltonian
    cycle plus independent extra arcs."""
    order = rng.permutation(n_nodes)
    A = np.zeros((n_nodes, n_nodes))

    def add_edge(src, dst):
        A[dst, src] = rng.uniform(*weight_range)

    for k in range(n_nodes):
        add_edge(order[k], order[(k + 1) % n_nodes])
    for src in range(n_nodes):
        for dst in range(n_nodes):
            if src != dst and A[dst, src] == 0 and rng.random() < extra_edge_prob:
                add_edge(src, dst)
    return Digraph(A)


def random_dense_model(rng, n, n_nodes, entry_range=(-1.0, 1.0)):
    """Random plant with dense random output blocks, jointly observable."""
    rows_min = -(-n // 2)  # ceil(n/2)
    while True:
        A = rng.uniform(*entry_range, (n, n))
        outputs = tuple(
            rng.uniform(*entry_range, (int(rng.integers(rows_min, rows_min + 2)), n))
            for _ in range(n_nodes)
        )
        model = SystemModel(A=A, outputs=outputs)
        if joint_observability_rank(model) == n:
            return model


def random_partial_model(rng, n, n_nodes, mode_range=(-1.0, 1.5)):
    """Diagonal plant whose coordinates are split among the nodes; nodes
    that own no coordinate get a zero output row."""
    modes = rng.uniform(*mode_range, n)
    A = np.diag(modes)
    owner = rng.integers(0, n_nodes, n)
    eye = np.eye(n)
    outputs = []
    for i in range(n_nodes):
        rows = [eye[k] for k in range(n) if owner[k] == i]
        outputs.append(np.array(rows) if rows else np.zeros((1, n)))
    return SystemModel(A=A, outputs=tuple(outputs))


def random_model(rng, n, n_nodes):
    """Fifty-fifty mix of the dense and partial families."""
    if rng.random() < 0.5:
        return random_dense_model(rng, n, n_nodes)
    return random_partial_model(rng, n, n_nodes)


def battery_instances(seed, count=BATTERY_SIZE):
    """(model, graph) pairs with n in 2..6 and N in 2..5, as the acceptance
    battery draws them."""
    rng = np.random.default_rng(seed)
    instances = []
    while len(instances) < count:
        n = int(rng.integers(2, 7))
        n_nodes = int(rng.integers(2, 6))
        g_net = random_sc_digraph(rng, n_nodes)
        model = random_model(rng, n, n_nodes)
        if joint_observability_rank(model) != n:
            continue
        instances.append((model, g_net))
    return instances


def partial_instance(n, seed):
    """n = N partial plant on a random strongly connected digraph."""
    rng = np.random.default_rng(seed)
    g_net = random_sc_digraph(rng, n)
    model = random_partial_model(rng, n, n)
    return model, g_net


def config_document(model, g_net, seed):
    """CLI config for a model and graph, with simulation defaults."""
    adjacency = g_net.adjacency
    edges = [
        {"from": src, "to": dst, "weight": float(adjacency[dst, src])}
        for dst in range(g_net.node_count)
        for src in range(g_net.node_count)
        if adjacency[dst, src] != 0
    ]
    return {
        "system": {
            "n": model.n,
            "A": model.A.tolist(),
            "outputs": [{"H": H.tolist()} for H in model.outputs],
        },
        "graph": {"N": g_net.node_count, "edges": edges},
        "params": {"alpha": 1.0, "seed": seed},
    }


def readme_instance():
    """Model and graph of the README config."""
    system = README_CONFIG["system"]
    model = SystemModel(
        A=np.array(system["A"]),
        outputs=tuple(np.array(block["H"]) for block in system["outputs"]),
    )
    edges = [(e["from"], e["to"], e["weight"]) for e in README_CONFIG["graph"]["edges"]]
    return model, Digraph.from_edges(README_CONFIG["graph"]["N"], edges)
