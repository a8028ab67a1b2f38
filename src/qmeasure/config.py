"""Run-wide numeric settings shared by the CLI, demo, and sampled checks."""

import math
from dataclasses import dataclass

from .errors import BadArgument, ValidationError
from .linalg import DEFAULT_CLUSTER_TOL, DEFAULT_TOL

OUTPUT_FORMATS = ("text", "machine")

__all__ = ["RunConfig", "OUTPUT_FORMATS"]


@dataclass(frozen=True)
class RunConfig:
    tol: float = DEFAULT_TOL
    cluster_tol: float = DEFAULT_CLUSTER_TOL
    seed: int = 0
    samples: int = 100
    output_format: str = "text"

    def __post_init__(self):
        if not all(t > 0 and math.isfinite(t) for t in (self.tol, self.cluster_tol)):
            raise BadArgument("tolerances must be positive and finite")
        if self.seed < 0:
            raise BadArgument(f"seed must be non-negative, got {self.seed}")
        if self.samples < 1:
            raise ValidationError("samples must be at least 1")
        if self.output_format not in OUTPUT_FORMATS:
            raise ValidationError(f"output format must be one of {OUTPUT_FORMATS}")
