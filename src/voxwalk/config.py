"""Pipeline configuration with JSON round-tripping.

Defaults follow the reference operating point: skip keep-probability 0.5,
prune fraction 0.999, Gaussian edge sharpness 100, learning rate 1e-4.
"""

import json
import numbers

import numpy as np
from dataclasses import dataclass, field, asdict


@dataclass
class PipelineConfig:
    alpha: float = 0.5
    theta: float = 0.999
    beta: float = 100.0
    learning_rate: float = 1e-4
    solver_tol: float = 1e-8
    seeds: dict = field(default_factory=lambda: {"network": 0})

    def __post_init__(self):
        for name in ("alpha", "theta", "beta", "learning_rate", "solver_tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not (isinstance(self.seeds, dict) and set(self.seeds) <= {"network"}
                and all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                        for v in self.seeds.values())):
            raise ValueError(f"seeds may only map \"network\" to an integer, got {self.seeds!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0,1], got {self.alpha}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0,1], got {self.theta}")
        # written as negations so that NaN, which fails every comparison, is rejected
        if not 0 <= self.beta < np.inf:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not 0 < self.solver_tol < np.inf:
            raise ValueError(f"solver_tol must be finite and > 0, got {self.solver_tol}")
        self.seeds = {str(k): int(v) for k, v in self.seeds.items()}

    def to_json(self):
        return json.dumps(asdict(self), indent=2) + "\n"

    @classmethod
    def from_json(cls, text):
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            return cls.from_json(text)
        except ValueError as exc:
            raise ValueError(f"config {path}: {exc}") from None

    def replace(self, **overrides):
        """New config with the non-None overrides applied."""
        data = asdict(self)
        for key, value in overrides.items():
            if value is not None:
                data[key] = value
        return PipelineConfig(**data)
