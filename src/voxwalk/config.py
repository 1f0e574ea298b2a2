"""The pipeline's reference operating point, the one place its defaults are set.

Skip keep-probability 0.5, prune fraction 0.999, Gaussian edge sharpness
100, learning rate 1e-4 and PCG relative tolerance 1e-8.  The CLI's flags,
`NetworkSpec.alpha` and the `tol` of `solve` and `refine` default to these
fields; each value is checked where the library uses it (`NetworkSpec`,
`TrainConfig`, `select`, `edge_weight`, `solve`).
"""

from dataclasses import dataclass


@dataclass
class PipelineConfig:
    alpha: float = 0.5
    theta: float = 0.999
    beta: float = 100.0
    learning_rate: float = 1e-4
    solver_tol: float = 1e-8
