import json

import pytest

from observer_kit.config import build_sim_config, load_config, load_design
from observer_kit.errors import ConfigError
from observer_kit.synth import SynthesisParams, synthesize


def write(path, doc):
    path.write_text(json.dumps(doc))
    return path


def base_doc():
    return {
        "system": {
            "n": 2,
            "A": [[0.0, 1.0], [0.0, 0.0]],
            "outputs": [{"H": [[1.0, 0.0]]}, {"H": [[0.0, 1.0]]}],
        },
        "graph": {
            "N": 2,
            "edges": [
                {"from": 0, "to": 1, "weight": 1.5},
                {"from": 1, "to": 0, "weight": 0.5},
            ],
        },
        "params": {"alpha": 2.0},
    }


class TestLoadConfig:
    def test_minimal(self, tmp_path):
        loaded = load_config(write(tmp_path / "c.json", base_doc()))
        assert loaded.model.n == 2
        assert loaded.graph.node_count == 2
        # edge (0, 1) lands at adjacency[1][0]
        assert loaded.graph.adjacency[1, 0] == 1.5
        assert loaded.graph.adjacency[0, 1] == 0.5
        assert loaded.params.alpha == 2.0
        assert loaded.seed == 0

    def test_optional_params(self, tmp_path):
        doc = base_doc()
        doc["params"].update({"seed": 42, "sim": {"t_final": 4.0, "dt": 0.01}})
        loaded = load_config(write(tmp_path / "c.json", doc))
        assert loaded.params == SynthesisParams(alpha=2.0)
        assert loaded.seed == 42
        assert loaded.sim_settings == {"t_final": 4.0, "dt": 0.01}

    def test_keys_of_older_configs_are_ignored(self, tmp_path):
        # params.g, params.margins, params.rank_rtol and params.sim.seed set
        # nothing any more: the loader ignores them, as it ignores every key
        # it does not read, and the seed of a run is params.seed
        clean = load_config(write(tmp_path / "clean.json", base_doc()))
        doc = base_doc()
        doc["params"].update({
            "g": [2.0, 3.0], "margins": {"epsilon": 0.8, "gamma": 1.1},
            "rank_rtol": 1e-10, "sim": {"seed": 3},
        })
        older = load_config(write(tmp_path / "older.json", doc))
        assert older.params == clean.params
        assert build_sim_config(older) == build_sim_config(clean)
        design = synthesize(older.model, older.graph, older.params)
        expected = synthesize(clean.model, clean.graph, clean.params)
        assert json.dumps(design.to_dict()) == json.dumps(expected.to_dict())

    def test_missing_section(self, tmp_path):
        doc = base_doc()
        del doc["graph"]
        with pytest.raises(ConfigError):
            load_config(write(tmp_path / "c.json", doc))

    def test_node_count_mismatch(self, tmp_path):
        doc = base_doc()
        doc["graph"]["N"] = 3
        with pytest.raises(ConfigError):
            load_config(write(tmp_path / "c.json", doc))

    def test_wrong_n(self, tmp_path):
        doc = base_doc()
        doc["system"]["n"] = 4
        with pytest.raises(ConfigError):
            load_config(write(tmp_path / "c.json", doc))

    def test_bad_weight(self, tmp_path):
        doc = base_doc()
        doc["graph"]["edges"][0]["weight"] = -1.0
        with pytest.raises(ConfigError):
            load_config(write(tmp_path / "c.json", doc))

    def test_not_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("]]]")
        with pytest.raises(ConfigError):
            load_config(path)


class TestBuildSimConfig:
    def test_defaults(self, tmp_path):
        loaded = load_config(write(tmp_path / "c.json", base_doc()))
        config = build_sim_config(loaded)
        assert config.t_final == 10.0
        assert config.dt == 1e-3
        assert config.seed == 0

    def test_file_settings_and_overrides(self, tmp_path):
        doc = base_doc()
        doc["params"]["seed"] = 5
        doc["params"]["sim"] = {
            "t_final": 4.0,
            "dt": 0.01,
            "record_stride": 7,
            "fit_window": [1.0, 3.5],
            "x0": [1.0, 0.0],
        }
        loaded = load_config(write(tmp_path / "c.json", doc))
        config = build_sim_config(loaded)
        assert config.t_final == 4.0
        assert config.record_stride == 7
        assert config.fit_window == (1.0, 3.5)
        assert config.seed == 5
        overridden = build_sim_config(loaded, t_final=6.0, dt=0.002, seed=9)
        assert overridden.t_final == 6.0
        assert overridden.dt == 0.002
        assert overridden.seed == 9

    def test_bad_window_rejected(self, tmp_path):
        doc = base_doc()
        doc["params"]["sim"] = {"t_final": 2.0, "fit_window": [1.0, 5.0]}
        loaded = load_config(write(tmp_path / "c.json", doc))
        with pytest.raises(ConfigError):
            build_sim_config(loaded)


class TestLoadDesign:
    def test_malformed_document(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"gamma": 1.0}))
        with pytest.raises(Exception):
            load_design(path)
