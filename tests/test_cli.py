import json

import numpy as np
import pytest

from gfclust import (
    MultiViewGraph,
    SyntheticSpec,
    generate_synthetic,
    graphs,
    load_dataset,
    save_dataset,
    training,
)
from gfclust.cli import _build_parser, _train_config, main
from gfclust.encoders import encode_t
from gfclust.spectral import compare_spectra
from gfclust.training import TrainingPipeline

from helpers import tiny_two_view
from test_datasets import write_tiny3


def _must_not_run(*args, **kwargs):
    raise AssertionError("called")


def base_config(tmp_path, **extra):
    payload = {
        "synthetic": {
            "n_nodes": 24,
            "n_clusters": 3,
            "n_views": 2,
            "p_in": 0.5,
            "p_out": 0.05,
            "n_features": 8,
            "mean_separation": 4.0,
            "noise_scale": 0.8,
            "seed": 1,
        },
        "epochs": 2,
        "hr_refresh_interval": 2,
        "encoder": {"latent_dim": 4, "hidden_dim": 8, "epochs": 5},
        "seed": 0,
    }
    payload.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


class TestRun:
    def test_run_on_tiny3_fixture(self, tmp_path, capsys):
        manifest = write_tiny3(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "manifest": manifest.name,
                    "epochs": 1,
                    "encoder": {"latent_dim": 2, "hidden_dim": 3, "epochs": 2},
                }
            )
        )
        out = tmp_path / "out"
        code = main(["run", "--config", str(config), "--out", str(out)])
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "embedding.csv").exists()
        line = capsys.readouterr().out.strip()
        assert line.startswith("NMI=") and "ARI=" in line and "ACC=" in line and "F1=" in line

    def test_negative_gamma_exits_one(self, tmp_path, capsys):
        config = base_config(tmp_path, gamma_rec=-1.0)
        out = tmp_path / "out"
        code = main(["run", "--config", str(config), "--out", str(out)])
        assert code == 1
        assert not out.exists()  # no partial outputs
        assert "error" in capsys.readouterr().err

    def test_divergence_exits_two_and_writes_partial_report(self, tmp_path, capsys):
        g = tiny_two_view(n=15, c=3)
        huge = MultiViewGraph(
            np.full_like(g.features, 1e200), g.adjacencies, g.n_clusters, g.labels
        )
        save_dataset(huge, tmp_path / "data")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "manifest": "data/manifest.json",
            "epochs": 2,
            "encoder": {"latent_dim": 2, "hidden_dim": 3, "epochs": 0, "activation": "linear"},
        }))
        for argv, name in ((["run"], "report.json"),
                           (["ablate", "--variant", "no_kl"], "report_no_kl.json")):
            out = tmp_path / argv[0]
            assert main(argv + ["--config", str(config), "--out", str(out)]) == 2
            assert "non-finite" in capsys.readouterr().err
            report = json.loads((out / name).read_text())
            assert report["final"] is None
            assert report["epochs"] == []
            assert [view["view"] for view in report["pretrain"]] == [0, 1]
            assert not list(out.glob("embedding*.csv"))

    def test_same_seed_byte_identical_reports(self, tmp_path, capsys):
        config = base_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(config), "--seed", "7", "--out", str(out1)]) == 0
        assert main(["run", "--config", str(config), "--seed", "7", "--out", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "embedding.csv").read_bytes() == (out2 / "embedding.csv").read_bytes()

    def test_flag_overrides_config_epochs(self, tmp_path, capsys):
        config = base_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--epochs", "1", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["epochs"]) == 1

    def test_unknown_top_level_key_exits_one(self, tmp_path, capsys):
        config = base_config(tmp_path, epoch=5)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 1
        assert not out.exists()
        assert "unknown config keys: epoch" in capsys.readouterr().err

    def test_encoder_seed_is_an_unknown_field(self, tmp_path, capsys):
        # each view's encoders train from a seed drawn from the top-level seed
        config = base_config(tmp_path, encoder={"latent_dim": 4, "hidden_dim": 8, "seed": 3})
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 1
        assert not out.exists()
        assert "unknown config field" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("section, name", [
        ("encoder", "learning_rate"),
        (None, "learning_rate"),
        ("synthetic", "mean_separation"),
        ("synthetic", "noise_scale"),
    ])
    def test_nonfinite_number_exits_one_before_training(self, tmp_path, capsys, monkeypatch,
                                                        section, name, value):
        payload = json.loads(base_config(tmp_path).read_text())
        (payload if section is None else payload[section])[name] = value
        config = tmp_path / "nonfinite.json"
        config.write_text(json.dumps(payload))
        monkeypatch.setattr(training, "pretrain_view", _must_not_run)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 1
        assert not out.exists()
        assert f"{name} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [1.5, True])
    @pytest.mark.parametrize("section, name", [
        (None, "epochs"),
        (None, "hr_refresh_interval"),
        (None, "kmeans_restarts"),
        (None, "seed"),
        ("encoder", "latent_dim"),
        ("encoder", "hidden_dim"),
        ("encoder", "epochs"),
        ("filter", "order"),
        ("synthetic", "n_nodes"),
        ("synthetic", "n_clusters"),
        ("synthetic", "n_views"),
        ("synthetic", "n_features"),
        ("synthetic", "seed"),
    ])
    def test_non_integer_count_exits_one_before_pretraining(self, tmp_path, capsys, monkeypatch,
                                                            section, name, value):
        payload = json.loads(base_config(tmp_path).read_text())
        (payload if section is None else payload.setdefault(section, {}))[name] = value
        config = tmp_path / "count.json"
        config.write_text(json.dumps(payload))
        monkeypatch.setattr(training, "pretrain_view", _must_not_run)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{name} must be an integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("section, name, value, message", [
        (None, "rho", "1.0", "rho must be a real number, got '1.0'"),
        (None, "gamma_kl", True, "gamma_kl must be a real number, got True"),
        (None, "seed", -1, "seed must be >= 0, got -1"),
        ("filter", "hr", True, "hr must be a real number, got True"),
        ("synthetic", "p_in", "0.1", "p_in must be a real number, got '0.1'"),
        ("synthetic", "p_in", True, "p_in must be a real number, got True"),
        ("synthetic", "p_out", [0.01, True], "p_out must be a real number, got True"),
        ("synthetic", "pair_separation", float("inf"), "pair_separation must be finite, got inf"),
        ("synthetic", "seed", -1, "seed must be >= 0, got -1"),
    ])
    def test_bad_value_exits_one_naming_it_before_pretraining(self, tmp_path, capsys, monkeypatch,
                                                              section, name, value, message):
        payload = json.loads(base_config(tmp_path).read_text())
        (payload if section is None else payload.setdefault(section, {}))[name] = value
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(payload))
        monkeypatch.setattr(training, "pretrain_view", _must_not_run)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_manifest_or_features_exit_one_before_pretraining(self, tmp_path, capsys,
                                                                  monkeypatch):
        monkeypatch.setattr(training, "pretrain_view", _must_not_run)
        manifest = write_tiny3(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"manifest": manifest.name, "epochs": 1}))
        good = manifest.read_text()
        manifest.write_text(good.replace('"n_clusters": 2', '"n_clusters": 2.9'))
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == "error: n_clusters must be an integer, got 2.9\n"
        manifest.write_text(good)
        (tmp_path / "features.csv").write_text("0.5,1\nnan,0\n0,0.25")
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == "error: features hold 1 non-finite values\n"

    @pytest.mark.parametrize("key, value", [("manifest", 5), ("out", ["a"]), ("name", None)])
    def test_non_string_path_or_name_exits_one(self, tmp_path, capsys, key, value):
        payload = json.loads(base_config(tmp_path).read_text())
        if key == "manifest":
            del payload["synthetic"]
        payload[key] = value
        config = tmp_path / "paths.json"
        config.write_text(json.dumps(payload))
        command = "synth" if key == "name" else "run"
        out = [] if key == "out" else ["--out", str(tmp_path / "o")]
        assert main([command, "--config", str(config), *out]) == 1
        assert capsys.readouterr().err == f"error: config key {key!r} must be a string, got {value!r}\n"

    @pytest.mark.parametrize("command", ["run", "spectrum"])
    def test_variant_key_is_refused_outside_ablate(self, tmp_path, capsys, monkeypatch, command):
        config = base_config(tmp_path, variant="no_kl")
        monkeypatch.setattr(training, "pretrain_view", _must_not_run)
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == f"error: config key 'variant' is read by ablate only, not by {command}\n"

    def test_config_keys_reach_train_config(self):
        args = _build_parser().parse_args(["run"])
        cfg = _train_config({"kmeans_restarts": 2, "synthetic": {}}, args)
        assert cfg.kmeans_restarts == 2
        assert cfg.detach_s is False

    def test_missing_data_source_exits_one(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"epochs": 1}))
        assert main(["run", "--config", str(config)]) == 1

    def test_both_data_sources_exit_one(self, tmp_path, capsys):
        config = base_config(tmp_path, manifest="whatever.json")
        assert main(["run", "--config", str(config)]) == 1


class TestAblate:
    def test_no_kl_zeroes_kl_entries(self, tmp_path, capsys):
        config = base_config(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["ablate", "--config", str(config), "--variant", "no_kl", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "report_no_kl.json").read_text())
        assert all(rec["l_kl"] == 0.0 for rec in report["epochs"])

    def test_variant_from_the_config(self, tmp_path, capsys):
        config = base_config(tmp_path, variant="no_kl")
        out = tmp_path / "out"
        assert main(["ablate", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "report_no_kl.json").exists()

    def test_unknown_variant_exits_one(self, tmp_path, capsys):
        config = base_config(tmp_path)
        assert main(["ablate", "--config", str(config), "--variant", "nonsense"]) == 1
        assert "unknown variant" in capsys.readouterr().err

    def test_variants_change_the_outcome(self, tmp_path, capsys):
        config = base_config(tmp_path)
        outs = {}
        for variant in ("raw_adjacency", "low_pass_only"):
            out = tmp_path / variant
            assert (
                main(["ablate", "--config", str(config), "--variant", variant, "--out", str(out)])
                == 0
            )
            outs[variant] = json.loads((out / f"report_{variant}.json").read_text())
        base_out = tmp_path / "base"
        assert main(["run", "--config", str(config), "--out", str(base_out)]) == 0
        base = json.loads((base_out / "report.json").read_text())
        assert outs["raw_adjacency"]["epochs"] != base["epochs"]
        assert outs["low_pass_only"]["epochs"] != base["epochs"]


class TestSpectrumAndSynth:
    def test_synth_then_load_round_trip(self, tmp_path, capsys):
        config = base_config(tmp_path)
        out = tmp_path / "ds"
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 0
        g = load_dataset(out / "manifest.json")
        assert g.n_nodes == 24
        assert g.n_views == 2

    def test_synth_deterministic_bytes(self, tmp_path, capsys):
        config = base_config(tmp_path)
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        assert main(["synth", "--config", str(config), "--seed", "5", "--out", str(out1)]) == 0
        assert main(["synth", "--config", str(config), "--seed", "5", "--out", str(out2)]) == 0
        for name in ("manifest.json", "features.csv", "labels.csv", "graph_0.txt", "graph_1.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_spectrum_emits_two_csvs_per_view(self, tmp_path, capsys):
        config = base_config(tmp_path)
        out = tmp_path / "spec"
        assert main(["spectrum", "--config", str(config), "--out", str(out)]) == 0
        assert len(list(out.glob("*.csv"))) == 4  # 2 views x 2 kernels
        for view in (0, 1):
            assert (out / f"spectrum_view{view}_adjacency_rw.csv").exists()
            assert (out / f"spectrum_view{view}_joint_aggregation_rw.csv").exists()

    def test_spectrum_pretrains_only_and_writes_the_pipelines_spectra(self, tmp_path, capsys,
                                                                      monkeypatch):
        config = base_config(tmp_path)
        out = tmp_path / "spec"
        with monkeypatch.context() as patch:
            patch.setattr(training, "kmeans", _must_not_run)
            assert main(["spectrum", "--config", str(config), "--out", str(out)]) == 0
        # the same files from the encoders a whole pipeline pretrains
        payload = json.loads(config.read_text())
        cfg = _train_config(payload, _build_parser().parse_args(["spectrum"]))
        g = generate_synthetic(SyntheticSpec(**payload["synthetic"]))
        expected = tmp_path / "expected"
        for view, (params_x, params_a) in enumerate(TrainingPipeline(g, cfg).models):
            z_x = encode_t(params_x, g.features).data
            z_a = encode_t(params_a, g.adjacencies[view]).data
            compare_spectra(g, view, z_x, z_a, out_dir=expected)
        names = sorted(path.name for path in expected.glob("*.csv"))
        assert names == sorted(path.name for path in out.glob("*.csv"))
        for name in names:
            assert (out / name).read_bytes() == (expected / name).read_bytes()

    # the edgeless view's encoded adjacency leaves its clamped Gram rows at zero
    @pytest.mark.filterwarnings("ignore:.*all-zero rows:gfclust.errors.NumericsWarning")
    def test_spectrum_runs_on_a_view_without_edges(self, tmp_path, capsys):
        g = tiny_two_view()
        g = MultiViewGraph(g.features, [g.adjacencies[0], np.zeros((g.n_nodes, g.n_nodes))],
                           g.n_clusters, g.labels)
        manifest = save_dataset(g, tmp_path, name="edgeless")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "manifest": manifest.name, "encoder": {"latent_dim": 2, "hidden_dim": 4, "epochs": 2},
        }))
        out = tmp_path / "spec"
        assert main(["spectrum", "--config", str(config), "--out", str(out)]) == 0
        assert len(list(out.glob("*.csv"))) == 4
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 1
        assert "undefined on view 1" in capsys.readouterr().err

    def test_spectrum_over_the_memory_budget_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(graphs, "_available_bytes", lambda: 1000)
        config = base_config(tmp_path)
        assert main(["spectrum", "--config", str(config), "--out", str(tmp_path / "s")]) == 1
        assert "GB" in capsys.readouterr().err


class TestArgumentHandling:
    def test_bad_flag_exits_one(self, capsys):
        assert main(["run", "--not-a-flag"]) == 1

    def test_unknown_command_exits_one(self, capsys):
        assert main(["dance"]) == 1

    def test_unreadable_config_exits_one(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1

    def test_invalid_json_config_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["run", "--config", str(bad)]) == 1
