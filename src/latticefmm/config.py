"""Run configuration: defaults, accepted ranges, environment overrides.

Precedence for every knob is flags > environment > defaults.  The
environment variables are ``LFMM_EPS`` and ``LFMM_NLEAF``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

DEFAULT_EPS = 1e-10
DEFAULT_NLEAF = 64
DEFAULT_RTABLE = 30
DEFAULT_PROXY_PER_EDGE = 40
DEFAULT_SEED = 0

# Open interval of accepted accuracy targets, for RunConfig and fmm_apply.
EPS_RANGE = (1e-14, 1e-2)


def check_eps(eps: float) -> None:
    lo, hi = EPS_RANGE
    if not lo < eps < hi:
        raise ValueError(f"eps must lie in ({lo:g}, {hi:g}), got {eps}")


@dataclass
class RunConfig:
    eps: float = DEFAULT_EPS
    nleaf: int = DEFAULT_NLEAF
    rtable: int = DEFAULT_RTABLE
    proxy_per_edge: int = DEFAULT_PROXY_PER_EDGE
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        check_eps(self.eps)
        if self.nleaf < 1:
            raise ValueError(f"nleaf must be >= 1, got {self.nleaf}")
        if self.rtable < 3:
            raise ValueError(f"rtable must be >= 3, got {self.rtable}")

    @classmethod
    def from_env(cls, **overrides) -> "RunConfig":
        """Build a config from the environment, then apply explicit overrides.

        Overrides passed as ``None`` are ignored so CLI code can forward
        unset flags directly.
        """
        values = {}
        if "LFMM_EPS" in os.environ:
            values["eps"] = float(os.environ["LFMM_EPS"])
        if "LFMM_NLEAF" in os.environ:
            values["nleaf"] = int(os.environ["LFMM_NLEAF"])
        for key, val in overrides.items():
            if val is not None:
                values[key] = val
        return cls(**values)

