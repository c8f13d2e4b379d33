"""Flat run configuration: the one configuration of the CLI subcommands,
the truecaser and the tagger.

Stored as key=value lines; parse -> serialize -> parse is the identity.
Path fields default to "" meaning unset.  Command-line flags override file
values, which override the defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from casetag.errors import ConfigError, ParseError, text_lines

ENV_CONFIG = "CASETAG_CONFIG"

MODE_NONE = "none"
MODE_PREDICTED = "predicted"
MODE_GOLD = "gold"
CASE_MODES = (MODE_NONE, MODE_PREDICTED, MODE_GOLD)

REGIME_FIXED = "fixed"
REGIME_FINETUNED = "finetuned"
REGIME_SCRATCH = "scratch"
REGIMES = (REGIME_FIXED, REGIME_FINETUNED, REGIME_SCRATCH)

SCENARIOS = ("cased", "uncased")

# the layer sizes of the truecaser and the tagger
DIMENSIONS = ("char_emb_dim", "tc_hidden_dim", "word_emb_dim", "ner_char_emb_dim",
              "cnn_filters", "cnn_width", "ner_hidden_dim")


@dataclass
class RunConfig:
    # paths
    input: str = ""
    output: str = ""
    model: str = ""
    truecaser_model: str = ""
    train: str = ""
    dev: str = ""
    test: str = ""
    embeddings: str = ""
    stats: str = ""
    rules: str = ""
    gold: str = ""
    pred: str = ""
    # shared knobs
    seed: int = 1
    epochs: int = 20
    lr: float = 0.001
    dropout: float = 0.25
    pass_through_prob: float = 0.2
    caps_threshold: float = 0.20
    clip_norm: float = 5.0
    # truecaser dimensions and handling
    char_emb_dim: int = 50
    tc_hidden_dim: int = 100
    min_char_freq: int = 5
    max_sentence_chars: int = 1000
    dev_fraction: float = 0.1
    # tagger dimensions
    word_emb_dim: int = 100
    ner_char_emb_dim: int = 16
    cnn_filters: int = 128
    cnn_width: int = 3
    ner_hidden_dim: int = 256
    # tagger training
    case_mode: str = MODE_NONE
    regime: str = REGIME_FIXED
    scenario: str = "cased"
    aux_weight: float = 1.0
    patience: int = 5
    lowercase: bool = False
    augment: bool = False

    def to_lines(self) -> list[str]:
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "bool" or isinstance(value, bool):
                value = "true" if value else "false"
            out.append(f"{f.name}={value}")
        return out

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.to_lines()) + "\n")

    def apply_line(self, line: str, where: str = "<config>") -> None:
        key, sep, value = line.partition("=")
        if not sep:
            raise ParseError(f"{where}: expected key=value, got {line!r}")
        self.apply(key.strip(), value.strip(), where)

    def apply(self, key: str, value: str, where: str = "<config>") -> None:
        for f in fields(self):
            if f.name == key:
                current = getattr(self, f.name)
                try:
                    if isinstance(current, bool):
                        if value not in ("true", "false"):
                            raise ValueError(f"expected true/false, got {value!r}")
                        setattr(self, f.name, value == "true")
                    elif isinstance(current, int):
                        setattr(self, f.name, int(value))
                    elif isinstance(current, float):
                        setattr(self, f.name, float(value))
                    else:
                        setattr(self, f.name, value)
                except ValueError as exc:
                    raise ParseError(f"{where}: bad value for {key}: {exc}") from exc
                return
        raise ParseError(f"{where}: unknown config key {key!r}")

    @classmethod
    def from_file(cls, path: str, base: "RunConfig | None" = None) -> "RunConfig":
        cfg = base if base is not None else cls()
        for i, raw in enumerate(text_lines(path), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            cfg.apply_line(line, where=f"{path} line {i}")
        return cfg

    def validate(self) -> None:
        for key, allowed in (("case_mode", CASE_MODES), ("regime", REGIMES),
                             ("scenario", SCENARIOS)):
            value = getattr(self, key)
            if value not in allowed:
                raise ConfigError(f"{key} must be {'|'.join(allowed)}, got {value!r}")
        if self.regime != REGIME_FIXED and self.case_mode != MODE_PREDICTED:
            raise ConfigError(f"regime {self.regime!r} requires case mode 'predicted'")
        for key, ok, rule in (
                ("dropout", 0.0 <= self.dropout < 1.0, "in [0, 1)"),
                ("pass_through_prob", 0.0 <= self.pass_through_prob <= 1.0, "in [0, 1]"),
                ("dev_fraction", 0.0 <= self.dev_fraction < 1.0, "in [0, 1)"),
                ("caps_threshold", 0.0 <= self.caps_threshold <= 1.0, "in [0, 1]"),
                ("lr", self.lr > 0.0, "positive"),
                ("clip_norm", self.clip_norm > 0.0, "positive"),
                ("aux_weight", self.aux_weight >= 0.0, "non-negative"),
                ("epochs", self.epochs >= 1, "at least 1"),
                ("patience", self.patience >= 0, "non-negative"),
                ("max_sentence_chars", self.max_sentence_chars >= 1, "at least 1"),
                *((key, getattr(self, key) >= 1, "at least 1") for key in DIMENSIONS)):
            if not ok:
                raise ConfigError(f"{key} must be {rule}, got {getattr(self, key)}")
