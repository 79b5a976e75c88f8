"""Run configuration shared by the CLI, the harness, and the tests."""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field

from .errors import ConfigError

TRANSDUCTIVE = "transductive"
INDUCTIVE = "inductive"
MODES = (TRANSDUCTIVE, INDUCTIVE)
MATCH_PAPER = "paper"
MATCH_STRICT = "strict"
MATCHINGS = (MATCH_PAPER, MATCH_STRICT)


@dataclass
class RunConfig:
    """Everything that determines a run apart from the dataset itself.

    Defaults follow the reference setup: 64/16 long/short table widths,
    hidden widths of 50, Adam at 1e-4 with batches of 200 and dropout 0.1.
    Every field is also a CLI flag of the same name (``cli.py``); a field's
    ``metadata`` holds extra keywords for that flag: its help text or its
    allowed values.
    """

    # split
    train_frac: float = 0.70
    val_frac: float = 0.15
    mode: str = field(default=TRANSDUCTIVE, metadata={"choices": MODES})
    inductive_fraction: float = 0.10

    # neighbor memory
    long_size: int = field(default=64,
                           metadata={"help": "long table width M_l"})
    short_size: int = field(default=16,
                            metadata={"help": "short table width M_s"})
    matching: str = field(default=MATCH_PAPER, metadata={"choices": MATCHINGS})

    # history sequences
    seq_len: int = field(default=20,
                         metadata={"help": "neighbor window length l_s"})

    # encoder
    hidden: int = field(default=50, metadata={"help": "projection width d"})
    time_dim: int = 50
    out_dim: int = 50
    layers: int = field(default=2, metadata={"help": "fusion layers L"})
    dropout: float = 0.1

    # optimization
    lr: float = 1e-4
    batch_size: int = 200
    epochs: int = 10
    patience: int = 5

    # ablation switches
    no_cne: bool = field(default=False,
                         metadata={"help": "zero-fill co-neighbor features"})
    no_td: bool = field(default=False,
                        metadata={"help": "disable the short-horizon table"})
    no_nup: bool = field(default=False,
                         metadata={"help": "disable neighbor updates"})
    no_tup: bool = field(default=False,
                         metadata={"help": "disable 2-order updates"})

    seed: int = 0
    float32: bool = field(default=False, metadata={"help": "train in float32"})

    def validate(self) -> "RunConfig":
        # each field takes values of its default's kind; bool is an int
        # to Python, but not to a field
        kinds = {bool: bool, int: numbers.Integral, float: numbers.Real,
                 str: str}
        for f in dataclasses.fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            if (not isinstance(value, kinds[kind])
                    or isinstance(value, bool) is not (kind is bool)):
                raise ConfigError(f"{f.name} must be a {kind.__name__}, "
                                  f"not {value!r}")
        if not 0.0 < self.train_frac < 1.0 or not 0.0 < self.val_frac < 1.0:
            raise ConfigError("split fractions must lie in (0, 1)")
        if self.train_frac + self.val_frac >= 1.0:
            raise ConfigError("train_frac + val_frac must leave room for test")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.matching not in MATCHINGS:
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
        # NaN fails every comparison, so the bounds are written to pass only
        # finite non-negative values
        if not 0.0 <= self.lr < math.inf:
            raise ConfigError(f"lr must be finite and non-negative, not {self.lr}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if min(self.batch_size, self.epochs, self.patience) < 1:
            raise ConfigError("batch_size, epochs and patience must be >= 1")
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
