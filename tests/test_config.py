import math

import pytest

from voxwalk.config import PipelineConfig


@pytest.mark.parametrize("field", ["beta", "learning_rate", "solver_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_settings_rejected(field, value):
    # NaN fails every comparison, so each bound must be written to reject it
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        PipelineConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        PipelineConfig().replace(**{field: value})


def test_settings_bounds():
    PipelineConfig(beta=0.0, learning_rate=0.0, solver_tol=1e-30)
    for field, value in (("beta", -1.0), ("learning_rate", -1e-4), ("solver_tol", 0.0)):
        with pytest.raises(ValueError, match=field):
            PipelineConfig(**{field: value})


def test_json_round_trip():
    cfg = PipelineConfig(theta=0.9, beta=50.0)
    assert PipelineConfig.from_json(cfg.to_json()) == cfg
    with pytest.raises(ValueError, match="unknown config keys"):
        PipelineConfig.from_json('{"gamma": 1}')
