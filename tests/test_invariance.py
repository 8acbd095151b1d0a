"""Exact symmetries of the design rule, tested without an oracle.

Two relations hold for the pipeline, on the first 40 instances of battery
seed 20240817 and the seed-1 ladder rungs n = N = 10 and 20, at alpha = 1:

- *Node relabeling.* Permuting the nodes together with the graph permutes
  the design: every L_i is bit-equal to its relabeled counterpart, since
  it depends on the node's own block only, and each stacked call treats
  its matrices one at a time. gamma and the abscissa are sums over nodes
  taken in another order, so they agree to rounding.
- *Orthogonal change of state coordinates.* A -> Q A Q.T and
  H_i -> H_i Q.T with a random orthogonal Q. The rotated rungs are one
  dense coordinate group where the originals split into many, so the
  same numbers come out of different arithmetic; gamma and the abscissa
  agree to rounding.

RTOL is set from the measured spread. With the permutations and rotations
drawn here, the largest relative differences are 1.3e-14 (abscissa) and
6.9e-15 (gamma) under relabeling and 4.8e-14 and 1.2e-15 under rotation;
with other draws over the same instances the abscissa moved by up to
1.2e-13. So 1e-12 leaves about 8x room for rounding and still catches
any change of the rule.

A change of time unit (A -> sA, alpha -> s alpha) should scale gamma and
the abscissa by s, but the constant 1 in the Bass shift beta breaks it;
that relation is not tested here.
"""

import numpy as np
import pytest

from conftest import battery_instances, partial_instance
from observer_kit.decomp import SystemModel
from observer_kit.graph import Digraph
from observer_kit.synth import SynthesisParams, synthesize
from observer_kit.verify import verify_design

RTOL = 1e-12

INSTANCES = [
    *(pytest.param(inst, id=f"battery-{j}") for j, inst in enumerate(battery_instances(20240817)[:40])),
    *(pytest.param(partial_instance(n), id=f"rung-{n}") for n in (10, 20)),
]


def design_and_report(model, g_net):
    design = synthesize(model, g_net, SynthesisParams(alpha=1.0))
    report = verify_design(model, g_net, design)
    assert report.passed and report.lyapunov_passed
    return design, report


def assert_same_numbers(pair, other):
    (design, report), (design2, report2) = pair, other
    assert design2.gamma == pytest.approx(design.gamma, rel=RTOL, abs=0)
    assert report2.abscissa == pytest.approx(report.abscissa, rel=RTOL, abs=0)


@pytest.mark.parametrize("instance", INSTANCES)
def test_node_relabeling(instance):
    model, g_net = instance
    rng = np.random.default_rng(model.n * 100 + g_net.node_count)
    # new node j is old node perm[j]
    perm = rng.permutation(g_net.node_count)
    relabeled = SystemModel(A=model.A, outputs=tuple(model.outputs[p] for p in perm))
    graph = Digraph(g_net.adjacency[np.ix_(perm, perm)])
    original = design_and_report(model, g_net)
    moved = design_and_report(relabeled, graph)
    assert_same_numbers(original, moved)
    for j, p in enumerate(perm):
        assert np.array_equal(moved[0].nodes[j].L, original[0].nodes[p].L)


@pytest.mark.parametrize("instance", INSTANCES)
def test_orthogonal_change_of_coordinates(instance):
    model, g_net = instance
    rng = np.random.default_rng(model.n * 100 + g_net.node_count)
    Q = np.linalg.qr(rng.normal(size=(model.n, model.n)))[0]
    rotated = SystemModel(A=Q @ model.A @ Q.T, outputs=tuple(H @ Q.T for H in model.outputs))
    assert_same_numbers(design_and_report(model, g_net), design_and_report(rotated, g_net))
