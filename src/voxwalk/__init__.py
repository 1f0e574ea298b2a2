"""voxwalk: randomized-connection 3D segmentation networks fused by
graph-based node selection and random-walker label inference."""

from .convops import upsample
from .network import (
    NetworkSpec,
    RandomConnectionNet,
    TrainConfig,
    infer,
    load_checkpoint,
    sample_mask,
    save_checkpoint,
    train_toy,
)
from .selection import SelectionResult, select
from .walker import (
    CompactGraph,
    RefineResult,
    WalkerSolution,
    assemble,
    edge_weight,
    refine,
    solve,
)
from .metrics import dice, stage_report
from .volio import read_volume, synth, write_volume
from .config import PipelineConfig

__version__ = "0.1.0"
