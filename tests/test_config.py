import numpy as np
import pytest

from coneighbor.config import RunConfig
from coneighbor.errors import ConfigError


class TestValidate:
    def test_defaults_pass(self):
        cfg = RunConfig().validate()
        assert cfg.long_size == 64 and cfg.short_size == 16
        assert cfg.hidden == cfg.time_dim == cfg.out_dim == 50
        assert cfg.batch_size == 200 and cfg.lr == 1e-4

    @pytest.mark.parametrize("kw", [
        dict(train_frac=0.0), dict(train_frac=1.0), dict(val_frac=-0.1),
        dict(train_frac=0.9, val_frac=0.1),     # no room left for test
        dict(mode="semi"), dict(matching="fuzzy"),
        dict(inductive_fraction=0.0), dict(inductive_fraction=1.0),
        dict(long_size=0), dict(short_size=0),
        dict(long_size=16, short_size=16),      # short must be narrower
        dict(seq_len=0), dict(time_dim=7), dict(time_dim=0),
        dict(hidden=0), dict(out_dim=0), dict(layers=0),
        dict(dropout=-0.1), dict(dropout=1.0), dict(lr=-1e-4),
        dict(batch_size=0), dict(epochs=0), dict(patience=0),
        dict(val_frac=1.0), dict(seed=-1),
        # values not of the field's kind
        dict(seq_len=2.5), dict(long_size=64.0), dict(no_cne="false"),
        dict(float32=1), dict(seed=True), dict(lr="1e-4"), dict(mode=None),
        # NaN passes a plain `lr < 0` check
        dict(lr=float("nan")), dict(lr=float("inf")), dict(lr=float("-inf")),
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ConfigError):
            RunConfig(**kw).validate()

    def test_numeric_kinds_allowed(self):
        # an int where a float is due, and numpy scalars of either kind
        cfg = RunConfig(lr=0, dropout=np.float32(0.5), seq_len=np.int64(5),
                        train_frac=np.float64(0.6)).validate()
        assert cfg.seq_len == 5

    def test_zero_lr_allowed(self):
        # a frozen-parameter epoch is a legitimate diagnostic run
        RunConfig(lr=0.0).validate()


class TestRoundTrip:
    def test_dict_roundtrip_preserves_everything(self):
        cfg = RunConfig(seq_len=7, no_cne=True, seed=42, float32=True)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="momentum"):
            RunConfig.from_dict({**RunConfig().to_dict(), "momentum": 0.9})

    def test_from_dict_validates(self):
        d = RunConfig().to_dict()
        d["epochs"] = 0
        with pytest.raises(ConfigError):
            RunConfig.from_dict(d)


class TestReplace:
    def test_replace_returns_validated_copy(self):
        base = RunConfig()
        swept = base.replace(long_size=128, short_size=32)
        assert swept.long_size == 128
        assert base.long_size == 64     # original untouched

    def test_replace_rejects_invalid_combination(self):
        with pytest.raises(ConfigError):
            RunConfig().replace(long_size=8)    # short 16 no longer narrower
