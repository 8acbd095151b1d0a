"""Shared random-instance generators and dense oracles for the test suite.

Random per-node output blocks carry ceil(n/2) to ceil(n/2)+1 rows: with
fewer rows the stacked observability matrices of large random pairs turn
into near-degenerate Krylov sequences (condition numbers beyond 1e12)
and no solver can meet the toolkit's residual contracts at double
precision. The structured family below covers the genuinely partial
observation cases instead, with perfect conditioning at any size.

`decompose_node` is the one-node case of the package's stacked
decomposition. The oracles at the end state the observer network the
plain way: `rhs` is the vector field of the stacked plant and observer
states, and `dense_E` the error matrix as one nN x nN array, for comparison with the
coordinate-group blocks the package works on. `select_gamma` is the
paper's constructive coupling gain, which the package replaced by the
exact thresholds of its certificate; `paper_design` builds the design of
that chain from the package's own pole placement and assembly.
"""

import numpy as np
import pytest

from observer_kit import (
    Digraph,
    SystemModel,
    assemble_gains,
    balance,
    compute_epsilon,
    joint_observability_rank,
    observability_matrix,
    place_observer_poles,
)
from observer_kit.decomp import decompose_nodes
from observer_kit.errors import AssumptionViolationError, DimensionError, NumericalFailureError
from observer_kit.numerics import as_matrix, as_square


def decompose_node(H, A):
    """Observability decomposition of the single pair (H, A): the one-node
    case of `decomp.decompose_nodes`, whose checks it runs; a failure names
    the pair node 0."""
    return decompose_nodes((as_matrix(H, "H"),), as_square(A, "A"))[0]


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


def random_undirected_graph(rng, n_nodes, weight_range=(0.5, 2.0)):
    """Connected undirected graph (symmetric adjacency): a ring plus chords."""
    A = np.zeros((n_nodes, n_nodes))
    for k in range(n_nodes):
        w = rng.uniform(*weight_range)
        i, j = k, (k + 1) % n_nodes
        A[i, j] = A[j, i] = w
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if A[i, j] == 0 and rng.random() < 0.3:
                A[i, j] = A[j, i] = rng.uniform(*weight_range)
    return Digraph(A)


def random_dense_model(rng, n, n_nodes, entry_range=(-1.0, 1.0)):
    """Random plant with dense random output blocks, jointly observable."""
    rows_min = -(-n // 2)  # ceil(n/2); see module docstring
    while True:
        A = rng.uniform(*entry_range, (n, n))
        outputs = tuple(
            rng.uniform(*entry_range, (int(rng.integers(rows_min, rows_min + 2)), n))
            for _ in range(n_nodes)
        )
        model = SystemModel(A=A, outputs=outputs)
        if joint_observability_rank(model) == n:
            return model


def kalman_rank(model):
    """Oracle for the joint rank: numpy's rank of every node's
    observability matrix stacked, fit only for small, well-scaled plants
    (its threshold grows like norm(A)**(n-1))."""
    return np.linalg.matrix_rank(
        np.vstack([observability_matrix(H, model.A) for H in model.outputs])
    )


def random_partial_model(rng, n, n_nodes, mode_range=(-1.0, 1.5)):
    """Diagonal plant whose coordinates are split among the nodes.

    Every coordinate is measured by exactly one node, so the network is
    jointly observable while each node has a genuine unobservable block
    (possibly with unstable modes). Nodes that own no coordinate end up
    fully blind (a zero output row), which the toolkit admits.
    """
    modes = rng.uniform(*mode_range, n)
    A = np.diag(modes)
    owner = rng.integers(0, n_nodes, n)
    eye = np.eye(n)
    outputs = []
    for i in range(n_nodes):
        rows = [eye[k] for k in range(n) if owner[k] == i]
        outputs.append(np.array(rows) if rows else np.zeros((1, n)))
    return SystemModel(A=A, outputs=tuple(outputs))


def partial_instance(n, seed=1):
    """(model, graph): the n = N partial plant on a random strongly
    connected digraph, drawn as the benchmark ladder draws its rungs."""
    rng = np.random.default_rng(seed)
    g_net = random_sc_digraph(rng, n)
    return random_partial_model(rng, n, n), g_net


def random_model(rng, n, n_nodes):
    """Fifty-fifty mix of the dense and structured families."""
    if rng.random() < 0.5:
        return random_dense_model(rng, n, n_nodes)
    return random_partial_model(rng, n, n_nodes)


def battery_instances(seed, count=100):
    """(model, graph) pairs with n in 2..6 and N in 2..5, drawn as the
    acceptance battery draws them at its seed 20240817."""
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


# (n, owned) instances for block-assembly oracles: owned[i] lists the
# rotated coordinates node i measures, so v_i = len(owned[i]). They mix
# v_i = n, 0 < v_i < n and v_i = 0 on N >= 3 nodes, plus a single node.
MIXED_OBSERVABILITY_CASES = [
    pytest.param(3, [[0, 1, 2], [0], [1, 2], []], id="v=3,1,2,0"),
    pytest.param(4, [[0, 1], [2, 3], [0, 1, 2, 3]], id="v=2,2,4"),
    pytest.param(3, [[0, 2]], id="single-node-v=2"),
]


def rotated_partial_model(rng, n, owned):
    """Plant Q diag(modes) Q.T with a random rotation Q and distinct modes;
    node i measures the rotated coordinates owned[i] (a zero output row
    when the list is empty), so its observable dimension is len(owned[i])."""
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    A = Q @ np.diag(rng.permutation(np.linspace(-1.0, 1.5, n))) @ Q.T
    outputs = tuple(Q.T[idx] if idx else np.zeros((1, n)) for idx in owned)
    return SystemModel(A=A, outputs=outputs)


def graph_for(rng, n_nodes):
    """Random strongly connected digraph, or the lone node when n_nodes is 1."""
    if n_nodes == 1:
        return Digraph(np.zeros((1, 1)))
    return random_sc_digraph(rng, n_nodes)


def rhs(state, model, g_net, design):
    """Vector field of the stacked plant + observers state.

    The layout is (x, xhat_1, ..., xhat_N). Each observer runs a copy of
    the plant corrected by output injection on its own measurement and by
    the weighted disagreement with its in-neighbors' estimates. ``state``
    is one state of shape (dim,) or a batch of m states as the columns of
    a (dim, m) array, with dim = n (N + 1); the result has the same shape.
    """
    n = model.n
    N = model.node_count
    dim = n * (N + 1)
    if state.ndim not in (1, 2) or state.shape[0] != dim:
        raise DimensionError(
            f"state must have shape ({dim},) or ({dim}, m), got {state.shape}"
        )
    A = model.A
    adjacency = g_net.adjacency
    degree = adjacency.sum(axis=1)
    x = state[:n]
    xhat = state[n:].reshape(N, n, *state.shape[1:])
    # node estimates as rows, batch columns flattened into each row
    xhat_rows = state[n:].reshape(N, -1)
    out = np.empty_like(state)
    out[:n] = A @ x
    for i in range(N):
        H = model.outputs[i]
        node = design.nodes[i]
        innovation = node.L @ (H @ (x - xhat[i]))
        neighbors = (adjacency[i] @ xhat_rows).reshape(xhat[i].shape)
        disagreement = neighbors - degree[i] * xhat[i]
        out[n * (i + 1) : n * (i + 2)] = (
            A @ xhat[i]
            + innovation
            + design.gamma * design.r[i] * (node.M @ disagreement)
        )
    return out


def node_blocks(err_sys, blocks):
    """The (N, n, n) stack of per-node matrices with the given group blocks
    of err_sys, one (N, k, m, m) array per entry of its groups as in
    Lambda_blocks, and zeros between groups."""
    N, n = err_sys.M_blocks[0].shape[0], sum(idx.size for idx in err_sys.groups)
    out = np.zeros((N, n, n))
    for idx, stack in zip(err_sys.groups, blocks):
        out[:, idx[:, :, None], idx[:, None, :]] = stack
    return out


def dense_matrix(err_sys, blocks):
    """The nN x nN matrix with the given group blocks of the error system
    err_sys, one stack per entry of its groups as in E_blocks, and zeros
    between groups."""
    N, n = err_sys.M_blocks[0].shape[0], sum(idx.size for idx in err_sys.groups)
    out = np.zeros((N * n, N * n))
    for rows, stack in zip(err_sys.group_rows(), blocks):
        out[rows[:, :, None], rows[:, None, :]] = stack
    return out


def dense_E(err_sys):
    """The dense nN x nN error matrix of err_sys."""
    return dense_matrix(err_sys, err_sys.E_blocks)


# Floor for the per-node coupling budget of `select_gamma`, keeping
# gamma*epsilon - 2*alpha strictly positive when no node imposes a real
# constraint.
BUDGET_FLOOR = 1e-9


def min_coupling_budget(A_iu, A_ir, floor=BUDGET_FLOOR):
    """Smallest b > 0 with lambda_max(Sym(A_iu) + A_ir A_ir.T / b) <= b.

    For b > 0 this is b^2 I - b S - K >= 0 with S = Sym(A_iu) and
    K = A_ir A_ir.T >= 0, so b is the largest eigenvalue of the quadratic
    pencil mu^2 I - mu S - K, i.e. of its companion [[S, K], [I, 0]]
    (Tisseur & Meerbergen, SIAM Review 2001); all of them are real since
    K >= 0. The floor is returned when it is larger.
    """
    m = A_iu.shape[0]
    companion = np.block([[A_iu + A_iu.T, A_ir @ A_ir.T], [np.eye(m), np.zeros((m, m))]])
    return max(float(np.max(np.linalg.eigvals(companion).real)), floor)


def select_gamma(decomps, epsilon, alpha, margin=1.1):
    """The paper's coupling gain: large enough to dominate every
    unobservable block.

    For each node with a nontrivial unobservable part, the minimal budget
    b_i = gamma*epsilon - 2*alpha making

        Sym(A_iu) - b I + A_ir A_ir.T / b <= 0

    is one eigenvalue problem (see `min_coupling_budget`); the returned
    gain is

        gamma = max((margin * max_i b_i + 2*alpha) / epsilon, 2*alpha + 1).

    The domination inequality is re-checked for every constrained node at
    the returned gain.
    """
    if not epsilon > 0:
        raise AssumptionViolationError(f"epsilon must be positive, got {epsilon}")
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    budget = BUDGET_FLOOR
    for d in decomps:
        if d.v < d.n:
            budget = max(budget, min_coupling_budget(d.A_iu, d.A_ir))
    gamma = max((margin * budget + 2.0 * alpha) / epsilon, 2.0 * alpha + 1.0)

    b = gamma * epsilon - 2.0 * alpha
    for i, d in enumerate(decomps):
        if d.v == d.n:
            continue
        test = d.A_iu + d.A_iu.T - b * np.eye(d.n - d.v) + (d.A_ir @ d.A_ir.T) / b
        if not np.linalg.eigvalsh(0.5 * (test + test.T))[-1] < 0:
            raise NumericalFailureError(
                f"coupling gain {gamma:.6g} fails to dominate the unobservable "
                f"block of node {i}"
            )
    return gamma


def paper_design(model, g_net, alpha):
    """(design, decomps) of the paper's constructive chain: epsilon from
    `compute_epsilon`, the gain gamma0 of `select_gamma`, and each node's
    unit-scale certificate block scaled by q = gamma0 - 2*alpha, through
    the package's `place_observer_poles` and `assemble_gains`. Each node
    then meets the per-node inequality of `test_synth.t_coordinate_lmi_margins`."""
    decomps = [decompose_node(H, model.A) for H in model.outputs]
    bal = balance(g_net)
    epsilon = compute_epsilon(decomps, bal)
    gamma0 = select_gamma(decomps, epsilon, alpha)
    blocks = [place_observer_poles(d.A_io, d.H_io, alpha) for d in decomps]
    design = assemble_gains(
        decomps, [L for L, _ in blocks], [(gamma0 - 2.0 * alpha) * P for _, P in blocks],
        gamma0, epsilon, bal.r, alpha,
    )
    return design, decomps
