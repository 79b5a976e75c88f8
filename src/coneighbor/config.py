"""Run configuration shared by the CLI, the harness, and the tests."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ConfigError

TRANSDUCTIVE = "transductive"
INDUCTIVE = "inductive"
MATCH_PAPER = "paper"
MATCH_STRICT = "strict"


@dataclass
class RunConfig:
    """Everything that determines a run apart from the dataset itself.

    Defaults follow the reference setup: 64/16 long/short table widths,
    hidden widths of 50, Adam at 1e-4 with batches of 200 and dropout 0.1.
    """

    # split
    train_frac: float = 0.70
    val_frac: float = 0.15
    mode: str = TRANSDUCTIVE
    inductive_fraction: float = 0.10

    # neighbor memory
    long_size: int = 64
    short_size: int = 16
    matching: str = MATCH_PAPER

    # history sequences
    seq_len: int = 20

    # encoder
    hidden: int = 50
    time_dim: int = 50
    out_dim: int = 50
    layers: int = 2
    dropout: float = 0.1

    # optimization
    lr: float = 1e-4
    batch_size: int = 200
    epochs: int = 10
    patience: int = 5
    neg_ratio: int = 1

    # ablation switches
    no_cne: bool = False
    no_td: bool = False
    no_nup: bool = False
    no_tup: bool = False

    seed: int = 0
    float32: bool = False

    def validate(self) -> "RunConfig":
        if not 0.0 < self.train_frac < 1.0 or not 0.0 < self.val_frac < 1.0:
            raise ConfigError("split fractions must lie in (0, 1)")
        if self.train_frac + self.val_frac >= 1.0:
            raise ConfigError("train_frac + val_frac must leave room for test")
        if self.mode not in (TRANSDUCTIVE, INDUCTIVE):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.matching not in (MATCH_PAPER, MATCH_STRICT):
            raise ConfigError(f"unknown matching mode {self.matching!r}")
        if not 0.0 < self.inductive_fraction < 1.0:
            raise ConfigError("inductive_fraction must lie in (0, 1)")
        if self.long_size < 1 or self.short_size < 1:
            raise ConfigError("table widths must be positive")
        if self.short_size >= self.long_size:
            raise ConfigError("short table must be narrower than the long table")
        if self.seq_len < 1:
            raise ConfigError("seq_len must be positive")
        if self.time_dim < 2 or self.time_dim % 2 != 0:
            raise ConfigError("time_dim must be an even integer >= 2")
        if min(self.hidden, self.out_dim, self.layers) < 1:
            raise ConfigError("hidden, out_dim and layers must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        if self.lr < 0.0:
            raise ConfigError("lr must be non-negative")
        if min(self.batch_size, self.epochs, self.patience, self.neg_ratio) < 1:
            raise ConfigError("batch_size, epochs, patience, neg_ratio must be >= 1")
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - names
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d).validate()

    def replace(self, **kw) -> "RunConfig":
        return dataclasses.replace(self, **kw).validate()


# the ablation study on the triadic stream (scripts/run_ablation.py and
# acceptance gates 5 and 6): one base config and three variants of it
ABLATION_BASE = dict(epochs=2, patience=5, seq_len=10, layers=1, float32=True)
ABLATION_VARIANTS = {
    "full": dict(long_size=64, short_size=16),
    "no_cne": dict(long_size=64, short_size=16, no_cne=True),
    "narrow": dict(long_size=8, short_size=2),
}
