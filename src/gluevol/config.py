"""Run configuration: per-module sections, profiles, JSON loading.

A run is one JSON document with a global seed; stage functions derive
every module seed from it so a whole pipeline reruns bit-identically. The
profiles copy it into the ``scan``, ``augment`` and ``train`` sections.
Documents are written with ``util.encode`` and read with ``load_config``,
which holds them to the codec's rule: every key present, none unknown,
save its one legacy rule: a section's ``RETIRED_KEYS`` may be present at
the values the code now fixes (``pcbs()`` sets each panel's pattern from
``attach_patterns``, so ``layout.attach_pattern`` is retired at
``"unattached"``). It also refuses a section seed that differs from the
run seed.
The ``paper`` profile mirrors the full three-panel replication; ``tiny`` is
the desk-scale single-type profile used by the acceptance runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from .dataset import AugmentParams
from .diagnose import VolumeThresholds
from .neuralvol.layers import ShapeMismatch
from .neuralvol.network import NetConfig
from .neuralvol.training import TrainConfig
from .pipeline import PREDICTION_S_PER_REGION
from .scansim import ATTACH_PATTERNS, LayoutConfig, PcbModel, ScanConfig, make_pcb
from .util import ConfigError, decode
from .voxelizer import GridConfig

ALLOWED_STEPS_UM = (20.0, 50.0)


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    profile: str = "tiny"
    passes: int = 1
    label_source: str = "analytic"
    attach_patterns: tuple[str, ...] = ("unattached",)
    layout: LayoutConfig = field(default_factory=LayoutConfig)
    scan: ScanConfig = field(default_factory=ScanConfig)
    augment: AugmentParams = field(default_factory=AugmentParams)
    grid: GridConfig = field(default_factory=GridConfig)
    net: NetConfig = field(default_factory=NetConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    thresholds: dict[str, VolumeThresholds] | None = None
    RETIRED_KEYS = {"prediction_s_per_region": PREDICTION_S_PER_REGION}  # not a field

    def validate(self, allow_any_step: bool = False) -> "RunConfig":
        if self.passes < 1:
            raise ConfigError("passes must be >= 1")
        if self.label_source not in ("analytic", "annotated"):
            raise ConfigError(f"unknown label source {self.label_source!r}")
        for pattern in self.attach_patterns:
            if pattern not in ATTACH_PATTERNS:
                raise ConfigError(f"unknown attach pattern {pattern!r}")
        if not allow_any_step and self.scan.step_um not in ALLOWED_STEPS_UM:
            raise ConfigError(
                f"scan step {self.scan.step_um} um is not in {ALLOWED_STEPS_UM}; "
                "pass the explicit override flag to use it"
            )
        try:
            net_input = self.net.block_shapes()[0]
        except ShapeMismatch as exc:
            raise ConfigError(f"net does not fit its input: {exc}") from None
        grid = (1, self.grid.nx, self.grid.ny, self.grid.nz)
        if net_input != grid:
            raise ConfigError(f"net input {net_input} does not match the grid {grid}")
        return self

    def resolved(self) -> "RunConfig":
        """Propagate the global seed into every module config."""
        return replace(
            self,
            scan=replace(self.scan, seed=self.seed),
            augment=replace(self.augment, seed=self.seed),
            train=replace(self.train, seed=self.seed),
        )

    def with_step(self, step_um: float) -> "RunConfig":
        """Set the scan step and keep the augmentation stage step in sync."""
        return replace(
            self,
            scan=replace(self.scan, step_um=step_um),
            augment=replace(self.augment, min_step_um=step_um),
        )

    def pcbs(self) -> list[PcbModel]:
        """One panel per attach pattern, indexed in order."""
        return [make_pcb(self.layout, pattern, i) for i, pattern in enumerate(self.attach_patterns)]


def paper_config(seed: int = 0) -> RunConfig:
    """Full-replication profile: three panels, five types, five passes, the
    20 um step and the paper's net and training (the section defaults)."""
    return RunConfig(
        seed=seed,
        profile="paper",
        passes=5,
        attach_patterns=("attached", "unattached", "half"),
    ).resolved()


def tiny_profile_config(seed: int = 0) -> RunConfig:
    """Desk-scale profile: one unattached panel, one glue type, 50 um step,
    narrow channels; small batches, a faster learning rate, and standardized
    targets so raw-mm^3 magnitudes do not throttle Adam."""
    layout = LayoutConfig(
        rows=1,
        columns=6,
        glue_types=("A",),
        base_volume_mm3={"A": 0.035},
        footprint_mm={"A": (0.5, 0.9)},
        die_mm={"A": (0.4, 0.7, 0.25)},
    )
    return RunConfig(
        seed=seed,
        profile="tiny",
        passes=1,
        attach_patterns=("unattached",),
        layout=layout,
        scan=ScanConfig(step_um=50.0, margin_mm=0.15),
        augment=AugmentParams(min_step_um=50.0),
        net=NetConfig(channels=(8, 16, 32, 64, 128)),
        train=TrainConfig(epochs=12, batch_size=32, learning_rate=1e-3,
                          standardize_targets=True),
    ).resolved()


def profile_config(profile: str, seed: int = 0) -> RunConfig:
    if profile == "paper":
        return paper_config(seed)
    if profile == "tiny":
        return tiny_profile_config(seed)
    raise ConfigError(f"unknown profile {profile!r}")


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    cfg = decode(RunConfig, text)
    for section in ("scan", "augment", "train"):
        seed = getattr(cfg, section).seed
        if seed != cfg.seed:
            raise ConfigError(f"{section}.seed is {seed}, not the run seed {cfg.seed}")
    return cfg
