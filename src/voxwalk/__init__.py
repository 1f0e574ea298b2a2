"""voxwalk: randomized-connection 3D segmentation networks fused by
graph-based node selection and random-walker label inference."""

__version__ = "0.1.0"
