import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gluevol import cli
from gluevol.config import (
    ConfigError,
    RunConfig,
    load_config,
    paper_config,
    profile_config,
    tiny_profile_config,
)
from gluevol.diagnose import VolumeThresholds
from gluevol.util import decode, encode


# ``config --print-defaults`` output of the tiny and paper profiles:
# ``legacy_*`` from before the net topology and the optimizer constants were
# fixed in code, ``legacy51_*`` (51 settings) from before the scanner,
# deposit, augmentation and grid settings were.
LEGACY = Path(__file__).parent / "data"


def to_doc(cfg: RunConfig) -> dict:
    return json.loads(encode(cfg))


def write_doc(path, doc: dict):
    path.write_text(json.dumps(doc))
    return path


class TestProfiles:
    def test_paper_profile_defaults(self):
        cfg = paper_config(seed=5)
        assert cfg.passes == 5
        assert cfg.scan.step_um == 20.0
        assert cfg.attach_patterns == ("attached", "unattached", "half")
        assert cfg.net.channels == (32, 64, 128, 256, 512)
        assert cfg.train.epochs == 100
        assert cfg.train.batch_size == 128
        assert cfg.train.learning_rate == pytest.approx(1e-4)

    def test_tiny_profile_defaults(self):
        cfg = tiny_profile_config(seed=5)
        assert cfg.layout.glue_types == ("A",)
        assert cfg.layout.rows == 1 and cfg.layout.columns == 6
        assert cfg.scan.step_um == 50.0
        assert cfg.net.channels == (8, 16, 32, 64, 128)
        assert cfg.train.standardize_targets

    def test_unknown_profile(self):
        with pytest.raises(ConfigError):
            profile_config("huge")

    def test_panels_follow_patterns(self):
        pcbs = paper_config(seed=1).pcbs()
        assert len(pcbs) == 3
        assert all(r.attached for r in pcbs[0].regions())
        assert not any(r.attached for r in pcbs[1].regions())

    @pytest.mark.parametrize("profile", ["tiny", "paper"])
    def test_sections_take_the_run_seed(self, profile):
        cfg = profile_config(profile, seed=3)
        assert cfg.scan.seed == cfg.augment.seed == cfg.train.seed == 3

    def test_printed_defaults_with_another_train_seed_exit_2(self, tmp_path, capsys):
        # The run seed used to overwrite the section seeds silently.
        assert cli.main(["config", "--print-defaults"]) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        doc["train"]["seed"] = 7
        path = write_doc(tmp_path / "run.json", doc)
        assert cli.main(["config", "--config", str(path)]) == cli.EXIT_CONFIG
        assert "train.seed is 7, not the run seed 0" in capsys.readouterr().err

    @pytest.mark.parametrize("pattern", ["bogus", "attached"])
    def test_printed_defaults_with_a_layout_attach_pattern_exit_2(self, tmp_path, capsys, pattern):
        # pcbs() sets every panel's pattern from attach_patterns, so any
        # other layout value would be dropped silently.
        assert cli.main(["config", "--print-defaults"]) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        doc["layout"]["attach_pattern"] = pattern
        path = write_doc(tmp_path / "run.json", doc)
        assert cli.main(["config", "--config", str(path)]) == cli.EXIT_CONFIG
        assert f"LayoutConfig.attach_pattern: got {pattern!r}" in capsys.readouterr().err

    def test_resolved_propagates_seed(self):
        resolved = replace(tiny_profile_config(seed=0), seed=9).resolved()
        assert resolved.scan.seed == 9
        assert resolved.augment.seed == 9
        assert resolved.train.seed == 9


class TestValidation:
    def test_nonstandard_step_needs_flag(self):
        cfg = tiny_profile_config().with_step(30.0)
        with pytest.raises(ConfigError):
            cfg.validate()
        assert cfg.validate(allow_any_step=True) is cfg

    def test_with_step_syncs_augment(self):
        cfg = tiny_profile_config().with_step(20.0)
        assert cfg.scan.step_um == 20.0
        assert cfg.augment.min_step_um == 20.0

    def test_bad_pattern_rejected(self):
        cfg = RunConfig(attach_patterns=("sideways",))
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize(
        "nx, input_dims, message",
        [(32, (64, 32, 64), "does not match the grid"), (30, (30, 32, 64), "not divisible")],
        ids=["net_input_not_grid", "grid_not_divisible"],
    )
    def test_net_must_fit_grid(self, tmp_path, capsys, nx, input_dims, message):
        cfg = tiny_profile_config()
        cfg = replace(
            cfg, grid=replace(cfg.grid, nx=nx), net=replace(cfg.net, input_dims=input_dims)
        )
        with pytest.raises(ConfigError, match=message):
            cfg.validate()
        path = tmp_path / "run.json"
        path.write_text(encode(cfg))
        assert cli.main(["config", "--config", str(path)]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err


class TestSerialization:
    def test_round_trip(self, tmp_path):
        cfg = replace(
            tiny_profile_config(seed=3), thresholds={"A": VolumeThresholds(0.01, 0.02)}
        )
        path = tmp_path / "run.json"
        path.write_text(encode(cfg))
        loaded = load_config(path)
        assert loaded == cfg

    def test_round_trip_paper(self):
        cfg = paper_config(seed=1)
        assert decode(RunConfig, encode(cfg)) == cfg

    def test_bad_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_key_is_config_error(self, tmp_path):
        doc = to_doc(tiny_profile_config())
        del doc["layout"]
        with pytest.raises(ConfigError):
            load_config(write_doc(tmp_path / "run.json", doc))

    @pytest.mark.parametrize(
        "layout_change",
        [{"column_scales": (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)}],
        ids=["explicit_scales"],
    )
    def test_round_trip_column_gradient(self, tmp_path, layout_change):
        cfg = tiny_profile_config(seed=2)
        cfg = replace(cfg, layout=replace(cfg.layout, **layout_change))
        path = tmp_path / "run.json"
        path.write_text(encode(cfg))
        assert load_config(path) == cfg

    @pytest.mark.parametrize("make_cfg", [tiny_profile_config, paper_config], ids=["tiny", "paper"])
    def test_legacy_materialized_scales_load(self, make_cfg, tmp_path):
        # Older documents hold the derived scales and no range.
        cfg = make_cfg(seed=4)
        doc = to_doc(cfg)
        doc["layout"]["column_scales"] = [float(s) for s in cfg.layout.scales()]
        loaded = load_config(write_doc(tmp_path / "run.json", doc))
        assert loaded.layout.scales() == cfg.layout.scales()
        for got, want in zip(loaded.pcbs(), cfg.pcbs(), strict=True):
            assert got.circuits == want.circuits

    def test_integers_in_float_fields_load_as_floats(self, tmp_path):
        # A hand-written "step_um": 50 must reach the artifacts as 50.0, and
        # a retired float key holds its fixed value as an integer too.
        cfg = tiny_profile_config()
        doc = to_doc(cfg)
        doc["scan"]["step_um"] = 50
        doc["scan"]["reposition_s"] = 1
        doc["augment"]["noise_levels"] = [0, 0.03, 0.06, 0.09]
        assert encode(load_config(write_doc(tmp_path / "run.json", doc))) == encode(cfg)

    def test_edited_column_count_rebuilds_gradient(self, tmp_path):
        doc = to_doc(tiny_profile_config())
        doc["layout"]["columns"] = 4
        (pcb,) = load_config(write_doc(tmp_path / "run.json", doc)).pcbs()
        assert len(pcb.circuits[0]) == 4
        volumes = [pcb.region(0, col, "A", 0).dispensed_volume for col in range(4)]
        np.testing.assert_allclose(volumes, 0.035 * np.linspace(0.5, 1.5, 4))


def misspell_top_level(doc):
    doc["label_sourse"] = doc.pop("label_source")


def misspell_layout_key(doc):
    doc["layout"]["deposits_per_tipe"] = doc["layout"].pop("deposits_per_type")


def drop_scan_step(doc):
    del doc["scan"]["step_um"]


def drop_profile(doc):
    del doc["profile"]


# The deposit shape the code fixes, but for the bump.
BUMP_FREE_SHAPE = {"superellipse_exponent": 2.5, "cap_height_scale": 1.0, "bump_amplitude": 0.0,
                   "bump_position": [0.0, 0.72], "bump_sigma": 0.16}


def set_value(*path, value):
    """An edit that sets the value at ``path`` (keys from the top level)."""

    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value

    return edit


class TestCodecRule:
    """Every dataclass in a document is complete, has no unknown key, holds
    values of its fields' JSON types, floats finite, and a retired key only
    at the value the code fixes (``1`` is not ``true``). Codecs that took
    values as parsed, or filled in what was missing, accepted every edit
    here: misspelled keys were dropped, missing ones defaulted, and wrongly
    typed values failed later in a stage, or ran (``"seed": "3"``)."""

    EDITS = pytest.mark.parametrize(
        "edit, key",
        [
            (misspell_top_level, "label_sourse"),
            (misspell_layout_key, "deposits_per_tipe"),
            (drop_scan_step, "step_um"),
            (drop_profile, "profile"),
            (set_value("passes", value=1.5), "passes"),
            (set_value("seed", value="3"), "seed"),
            (set_value("passes", value=True), "passes"),
            (set_value("profile", value=1), "profile"),
            (set_value("train", "standardize_targets", value=1), "standardize_targets"),
            (set_value("layout", "base_volume_mm3", "A", value=float("nan")), "base_volume_mm3"),
            (set_value("scan", "margin_mm", value=float("inf")), "margin_mm"),
            (set_value("net", "stride", value=2), "NetConfig.stride: got 2,"),
            (set_value("net", "kernel", value=3.0), "NetConfig.kernel: got 3.0,"),
            (set_value("net", "leaky_slope", value=0.2), "NetConfig.leaky_slope: got 0.2,"),
            (set_value("net", "in_channels", value=True), "NetConfig.in_channels: got True,"),
            (set_value("train", "shuffle", value=False), "TrainConfig.shuffle: got False,"),
            (set_value("train", "compute_dtype", value="float64"), "TrainConfig.compute_dtype"),
            (set_value("train", "beta1", value=0.8), "TrainConfig.beta1: got 0.8,"),
            (set_value("scan", "noise_sigma_z_mm", value=0.0),
             "ScanConfig.noise_sigma_z_mm: got 0.0,"),
            (set_value("scan", "reposition_s", value=True), "ScanConfig.reposition_s: got True,"),
            (set_value("layout", "squeeze_ratio", value=1), "LayoutConfig.squeeze_ratio: got 1,"),
            (set_value("layout", "column_scale_range", value=[0.25, 2.0]),
             "LayoutConfig.column_scale_range: got"),
            (set_value("layout", "attach_pattern", value="half"),
             "LayoutConfig.attach_pattern: got 'half',"),
            (set_value("layout", "shape", value=dict(BUMP_FREE_SHAPE)), "LayoutConfig.shape: got"),
            (set_value("augment", "noise_levels", value=[0.0, 0.03]),
             "AugmentParams.noise_levels: got"),
            (set_value("augment", "window_fraction", value=0.9),
             "AugmentParams.window_fraction: got 0.9,"),
            (set_value("grid", "coverage_target", value=1), "GridConfig.coverage_target: got 1,"),
            (set_value("grid", "z_voxel_base", value="0.01"),
             "GridConfig.z_voxel_base: got '0.01',"),
            (set_value("prediction_s_per_region", value=2.0),
             "RunConfig.prediction_s_per_region: got 2.0,"),
            (set_value("scan", "seed", value=9), "scan.seed is 9, not the run seed 0"),
            (set_value("augment", "seed", value=9), "augment.seed is 9,"),
            (set_value("train", "seed", value=7), "train.seed is 7,"),
            (set_value("train", "batch_size", value=0), "batch_size must be >= 1, got 0"),
            (set_value("train", "epochs", value=-1), "epochs must be >= 0, got -1"),
            (set_value("train", "learning_rate", value=-1e-3),
             "learning_rate must be finite and > 0, got -0.001"),
        ],
        ids=["unknown_top_level", "unknown_layout", "scan_without_step", "no_profile",
             "float_as_int", "str_as_int", "bool_as_int", "int_as_str", "int_as_bool",
             "nan", "infinity", "retired_stride", "retired_kernel_as_float",
             "retired_leaky_slope", "retired_bool_as_int", "retired_shuffle",
             "retired_compute_dtype", "retired_beta1", "retired_noise_sigma",
             "retired_reposition_as_bool", "retired_squeeze_ratio", "retired_column_scale_range",
             "retired_attach_pattern", "retired_shape", "retired_noise_levels",
             "retired_window_fraction", "retired_coverage_target", "retired_z_base_as_str",
             "retired_prediction_time", "scan_seed", "augment_seed", "train_seed",
             "zero_batch_size", "negative_epochs", "negative_learning_rate"],
    )

    @EDITS
    def test_load_config_rejects(self, tmp_path, edit, key):
        doc = to_doc(tiny_profile_config())
        edit(doc)
        with pytest.raises(ConfigError, match=key):
            load_config(write_doc(tmp_path / "run.json", doc))

    @EDITS
    def test_cli_exits_2(self, tmp_path, capsys, edit, key):
        doc = to_doc(tiny_profile_config())
        edit(doc)
        path = write_doc(tmp_path / "run.json", doc)
        assert cli.main(["config", "--config", str(path)]) == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err


class TestRetiredKeys:
    """Keys the code no longer reads load when they hold the value it fixes
    (``TestCodecRule`` refuses other values)."""

    @pytest.mark.parametrize("profile", ["tiny", "paper"])
    def test_documents_from_before_load(self, profile):
        text = (LEGACY / f"legacy_{profile}.json").read_text()
        assert "bn_momentum" in text and "compute_dtype" in text
        assert decode(RunConfig, text) == profile_config(profile).resolved()

    @pytest.mark.parametrize("profile", ["tiny", "paper"])
    def test_documents_with_51_settings_load(self, profile):
        path = LEGACY / f"legacy51_{profile}.json"
        text = path.read_text()
        assert "reposition_s" in text and "bump_sigma" in text and "coverage_target" in text
        assert load_config(path) == profile_config(profile)

    def test_train_profile_loads_whatever_it_holds(self, tmp_path):
        doc = json.loads((LEGACY / "legacy_tiny.json").read_text())
        doc["train"]["profile"] = "paper"
        assert load_config(write_doc(tmp_path / "run.json", doc)) == tiny_profile_config()
