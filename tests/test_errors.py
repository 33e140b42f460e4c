"""The one value rule: ``check_integers``, ``check_reals`` and ``from_mapping``,
and a walk over every numeric field of the configs and the manifest, so a
field added without a check fails here; and the one label rule,
``check_labels``."""

import dataclasses
import re
from dataclasses import dataclass

import numpy as np
import pytest

from gfclust import DatasetManifest, EncoderConfig, FilterConfig, SyntheticSpec, TrainConfig
from gfclust.errors import ConfigError, check_integers, check_labels, check_reals, from_mapping

# the smallest valid instance of each class: its required fields
REQUIRED = {
    TrainConfig: {},
    FilterConfig: {},
    EncoderConfig: {},
    SyntheticSpec: {"n_nodes": 8, "n_clusters": 2, "n_views": 1},
    DatasetManifest: {"name": "d", "n_nodes": 8, "n_views": 1, "n_features": 2,
                      "n_clusters": 2, "feature_file": "f.csv", "graph_files": ["g.txt"]},
}


def numeric_fields():
    """``(cls, name, kind)`` for each field annotated ``int`` or ``float``."""
    for cls in REQUIRED:
        for f in dataclasses.fields(cls):
            words = set(re.findall(r"\w+", str(f.type)))
            if "float" in words:
                yield cls, f.name, "real"
            elif "int" in words:
                yield cls, f.name, "integer"


NUMERIC = list(numeric_fields())


def test_the_walk_finds_the_numeric_fields():
    found = {(cls.__name__, name, kind) for cls, name, kind in NUMERIC}
    assert {("TrainConfig", "rho", "real"), ("TrainConfig", "seed", "integer"),
            ("TrainConfig", "learning_rate", "real"), ("EncoderConfig", "hidden_dim", "integer"),
            ("FilterConfig", "alpha", "real"), ("SyntheticSpec", "p_in", "real"),
            ("DatasetManifest", "n_clusters", "integer")} <= found
    assert not any(name in ("detach_s", "filter", "name") for _, name, _ in NUMERIC)


@pytest.mark.parametrize("cls, name, kind", NUMERIC,
                         ids=[f"{cls.__name__}.{name}" for cls, name, _ in NUMERIC])
def test_every_numeric_field_refuses_a_string_a_bool_and_nan(cls, name, kind):
    bad = ["1", True] + ([float("nan")] if kind == "real" else [])
    for value in bad:
        with pytest.raises(ConfigError, match=rf"^{name} must be "):
            cls(**{**REQUIRED[cls], name: value})


@dataclass
class Point:
    x: object = 0
    y: object = 0.0


class TestCheckIntegers:
    def test_lower_bound_is_inclusive(self):
        check_integers(Point(x=np.int64(2)), "x", low=2)
        with pytest.raises(ConfigError, match="x must be >= 3, got 2"):
            check_integers(Point(x=2), "x", low=3)

    @pytest.mark.parametrize("value", [2.0, False, "2", None])
    def test_non_integers(self, value):
        with pytest.raises(ConfigError, match="x must be an integer"):
            check_integers(Point(x=value), "x")


class TestCheckReals:
    def test_bounds(self):
        check_reals(Point(x=0, y=np.float32(1.0)), "x", "y", low=0.0, high=1.0)
        with pytest.raises(ConfigError, match=r"y must be > 0.0, got 0.0"):
            check_reals(Point(y=0.0), "y", low=0.0, open_low=True)
        with pytest.raises(ConfigError, match=r"y must lie in \[0.0, 1.0\], got 1.5"):
            check_reals(Point(y=1.5), "y", low=0.0, high=1.0)
        with pytest.raises(ConfigError, match=r"y must be >= 0.0, got -0.5"):
            check_reals(Point(y=-0.5), "y", low=0.0)

    @pytest.mark.parametrize("value, message", [
        (float("inf"), "must be finite"), (float("nan"), "must be finite"),
        (True, "must be a real number"), ("0.5", "must be a real number"),
        (1j, "must be a real number"), (None, "must be a real number"),
        ((0.5,), "must be a real number"),
    ])
    def test_non_finite_or_non_real(self, value, message):
        with pytest.raises(ConfigError, match=f"y {message}"):
            check_reals(Point(y=value), "y")

    def test_sequences_only_when_asked(self):
        check_reals(Point(y=[0.1, 0.2]), "y", sequences=True)
        check_reals(Point(y=0.1), "y", sequences=True)
        with pytest.raises(ConfigError, match="y must lie in"):
            check_reals(Point(y=(0.1, 2.0)), "y", high=1.0, sequences=True)


class TestCheckLabels:
    def test_returns_int64_and_takes_integral_floats(self):
        for labels in ([2, 0, 1], np.array([2, 0, 1], dtype=np.uint8), [2.0, 0.0, 1.0]):
            out = check_labels(labels, 3)
            assert out.dtype == np.int64 and out.tolist() == [2, 0, 1]
        assert check_labels([]).shape == (0,)
        assert check_labels([7]).tolist() == [7]  # no class count: only int64 bounds it

    def test_keeps_an_int64_array_without_a_copy(self):
        labels = np.array([0, 1, 1])
        assert check_labels(labels, 2) is labels

    @pytest.mark.parametrize("labels, message", [
        ([[0, 1], [1, 0]], "must be a 1-d array of numbers"),
        (np.int64(1), "must be a 1-d array of numbers"),
        ([True, False], "must be a 1-d array of numbers"),
        (["0", "1"], "must be a 1-d array of numbers"),
        ([0, 1j], "must be a 1-d array of numbers"),
        ([0.0, float("nan")], "must be finite whole numbers"),
        ([0.0, float("inf")], "must be finite whole numbers"),
        ([0.9, 1.7, 0.2], "must be finite whole numbers"),
        ([-1, 0, 1], r"must be finite whole numbers in the range \[0, 3\)"),
        ([0, 3], r"must be finite whole numbers in the range \[0, 3\)"),
    ])
    def test_refuses_naming_the_labels(self, labels, message):
        with pytest.raises(ValueError, match=f"^truth {message}"):
            check_labels(labels, 3, what="truth")

    @pytest.mark.parametrize("labels", [
        [-1, 0], [1e300, 0.0], [2.0**63], np.array([2**63], dtype=np.uint64),
    ])
    def test_without_a_class_count_labels_must_fit_int64(self, labels):
        with pytest.raises(ValueError, match=r"labels must be .* \[0, 9223372036854775807\)"):
            check_labels(labels)


class TestFromMapping:
    def test_builds_the_dataclass(self):
        assert from_mapping(Point, {"x": 1}, "point") == Point(x=1)

    def test_refuses_a_non_mapping(self):
        with pytest.raises(ConfigError, match="point must be a JSON object, got list"):
            from_mapping(Point, [1], "point")

    def test_refuses_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown point keys: 3, z"):
            from_mapping(Point, {"x": 1, "z": 2, 3: 4}, "point")

    def test_refuses_missing_required_keys(self):
        with pytest.raises(ConfigError, match="spec is missing fields: n_clusters, n_views"):
            from_mapping(SyntheticSpec, {"n_nodes": 4}, "spec")
