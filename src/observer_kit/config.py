"""Loading and saving of the JSON documents the command line works with.

Config layout (all node indices 0-based, matrices row-major)::

    {
      "system": {"n": 2, "A": [[..], [..]],
                 "outputs": [{"H": [[..]]}, {"H": [[..]]}]},
      "graph":  {"N": 2, "edges": [{"from": 0, "to": 1, "weight": 1.0}, ..]},
      "params": {"alpha": 1.0,
                 "seed": 0,                        # optional
                 "sim": {"t_final": 10.0, "dt": 1e-3, ...}}  # optional
    }

An edge (from, to, weight) means information flows from ``from`` to
``to``; the loader stores the weight at adjacency[to][from]. The decay
rate alpha is the one design input; the seed of the random initial
conditions is ``params.seed``, which the command line's ``--seed``
overrides. Keys the loader does not read are ignored, among them the
``params.g``, ``params.margins``, ``params.rank_rtol`` and
``params.sim.seed`` of older configs.
"""

import json
import numbers
from dataclasses import dataclass

import numpy as np

from .decomp import SystemModel
from .errors import ConfigError, NumericalFailureError
from .graph import Digraph
from .sim import SimulationConfig
from .synth import ObserverDesign, SynthesisParams, _numbers


@dataclass
class LoadedConfig:
    model: SystemModel
    graph: Digraph
    params: SynthesisParams
    sim_settings: dict
    seed: int


def _require(mapping, key, where):
    if key not in mapping:
        raise ConfigError(f"missing '{key}' in {where} section")
    return mapping[key]


def _integer(value, name):
    """value as an int, if it is an integer and not a boolean."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _typed(value, kind, name):
    """value, if it has the JSON type kind: dict (an object), int (an
    integer) or float (a number, or an array of them nested to any depth,
    as a vector or a matrix is). Numbers are checked by `synth`'s design
    file reader, so a JSON boolean, string or null is rejected the same
    way in a config and in a design."""
    try:
        if kind is int:
            return _integer(value, name)
        if kind is float:
            return _numbers(value, name)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object, got {value!r}")
    return value


def _typed_fields(section, keys, kind, where):
    """Check with `_typed` each of the keys that section holds."""
    for key in keys:
        if key in section:
            _typed(section[key], kind, f"{where}.{key}")


def load_config(path):
    """Parse and validate a config file into model, graph and parameters."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")

    system = _typed(_require(doc, "system", "config"), dict, "system")
    graph_sec = _typed(_require(doc, "graph", "config"), dict, "graph")
    params_sec = _typed(_require(doc, "params", "config"), dict, "params")

    try:
        A = np.asarray(_typed(_require(system, "A", "system"), float, "system.A"), dtype=float)
        outputs = [
            np.asarray(
                _typed(_require(block, "H", "system.outputs"), float, "system.outputs.H"),
                dtype=float,
            )
            for block in _require(system, "outputs", "system")
        ]
        model = SystemModel(A=A, outputs=tuple(outputs))
    except (TypeError, ValueError, NumericalFailureError) as exc:
        raise ConfigError(f"bad system section: {exc}") from exc
    if "n" in system and _typed(system["n"], int, "system.n") != model.n:
        raise ConfigError(
            f"system.n = {system['n']} disagrees with A, which is {model.n}x{model.n}"
        )

    node_count = _typed(_require(graph_sec, "N", "graph"), int, "graph.N")
    if node_count != model.node_count:
        raise ConfigError(
            f"graph.N = {node_count} but the system has {model.node_count} output blocks"
        )
    try:
        edges = [
            (
                _typed(e["from"], int, "edge 'from'"),
                _typed(e["to"], int, "edge 'to'"),
                float(_typed(e["weight"], float, "edge weight")),
            )
            for e in _require(graph_sec, "edges", "graph")
        ]
        g_net = Digraph.from_edges(node_count, edges)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad graph section: {exc}") from exc

    alpha = _typed(_require(params_sec, "alpha", "params"), float, "params.alpha")
    try:
        params = SynthesisParams(alpha=float(alpha))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad params section: {exc}") from exc

    sim_settings = _typed(params_sec.get("sim", {}), dict, "params.sim")
    _typed_fields(
        sim_settings, ("t_final", "dt", "x0", "xhat0", "fit_window"), float, "params.sim"
    )
    _typed_fields(sim_settings, ("record_stride",), int, "params.sim")
    seed = _typed(params_sec.get("seed", 0), int, "params.seed")
    return LoadedConfig(
        model=model, graph=g_net, params=params,
        sim_settings=sim_settings, seed=seed,
    )


def build_sim_config(loaded, t_final=None, dt=None, seed=None):
    """Simulation settings from the config file with CLI overrides applied."""
    settings = dict(loaded.sim_settings)
    if t_final is not None:
        settings["t_final"] = t_final
    if dt is not None:
        settings["dt"] = dt
    settings.setdefault("t_final", 10.0)
    settings.setdefault("dt", 1e-3)
    fit_window = settings.get("fit_window")
    try:
        return SimulationConfig(
            t_final=float(settings["t_final"]),
            dt=float(settings["dt"]),
            x0=settings.get("x0"),
            xhat0=settings.get("xhat0"),
            seed=seed if seed is not None else loaded.seed,
            record_stride=settings.get("record_stride", 1),
            fit_window=tuple(fit_window) if fit_window is not None else None,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad sim settings: {exc}") from exc


def save_design(design, path):
    with open(path, "w") as fh:
        json.dump(design.to_dict(), fh, indent=2)
        fh.write("\n")


def load_design(path):
    """Read a design file; `ObserverDesign.from_dict` checks its fields."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read design {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"design {path} is not valid JSON: {exc}") from exc
    return ObserverDesign.from_dict(doc)
