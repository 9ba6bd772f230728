"""Line and radial grids, the alpha grid of parameter sweeps, sampled
profiles, and the shared profile file format (`# kind=...` header plus two
whitespace-separated columns)."""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Union

import numpy as np

from .errors import GridError, ParameterDomainError
from .params import DerivedParams


def alpha_grid(lo: float, hi: float, step: float) -> List[float]:
    """The exponents lo, lo + step, ... up to hi; a slack of 1e-9 steps keeps
    an hi that lies on the grid despite rounding.  An empty range (hi < lo)
    is refused, like an empty list of lambda values."""
    lo, hi, step = float(lo), float(hi), float(step)
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)
            and step > 0.0):
        raise ParameterDomainError(
            f"need finite alpha bounds and a finite positive step, got {lo},{hi},{step}"
        )
    if hi < lo:
        raise ParameterDomainError(f"the alpha range is empty: hi={hi} < lo={lo}")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + k * step for k in range(count)]


@dataclass(frozen=True)
class LineGrid:
    """Uniform grid on [-L, L] with an odd number of points so s = 0 is a node."""

    L: float
    N: int

    def __post_init__(self):
        if not 0 < self.L < math.inf:
            raise GridError(f"half-length L={self.L} must be positive and finite")
        if self.N < 5 or self.N % 2 == 0:
            raise GridError(f"N={self.N} must be odd and >= 5")
        # the line form scales like h^-4 and its mass like h
        h4 = self.h * self.h * self.h * self.h
        if not (0 < h4 < math.inf and 1 / h4 < math.inf):
            raise GridError(f"spacing h={self.h!r} (L={self.L}, N={self.N}) "
                            "must have h^4 and h^-4 finite and positive")
        # at any alpha, the diagonal of D2^T D2 in the line form is 6/h^4
        if not 6 / h4 < math.inf:
            raise GridError(f"the line form overflows on the grid with spacing "
                            f"h={self.h!r} (L={self.L}, N={self.N})")

    @property
    def h(self) -> float:
        return 2.0 * self.L / (self.N - 1)

    @property
    def s(self) -> np.ndarray:
        return np.linspace(-self.L, self.L, self.N)


@dataclass(frozen=True)
class LineProfile:
    """Samples w_i ~ w(s_i) of a compactly supported line profile."""

    grid: LineGrid
    values: np.ndarray
    params: DerivedParams

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.N,):
            raise GridError(f"values shape {v.shape} does not match N={self.grid.N}")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class RadialProfile:
    """Samples u_j ~ u(r_j) on strictly increasing positive radial nodes."""

    nodes: np.ndarray
    values: np.ndarray
    n: int

    def __post_init__(self):
        r = np.asarray(self.nodes, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if r.ndim != 1 or r.shape != v.shape:
            raise GridError("nodes and values must be 1-d arrays of equal length")
        # a NaN node passes the order test, and a NaN value every later one
        bad = np.flatnonzero(~(np.isfinite(r) & np.isfinite(v)))
        if bad.size:
            i = bad[0]
            raise GridError(f"radial profile nodes and values must be finite, got "
                            f"u={float(v[i])!r} at r={float(r[i])!r} "
                            f"({bad.size} non-finite node(s))")
        if np.any(np.diff(r) <= 0):
            raise GridError("radial nodes must be strictly increasing")
        if r[0] < 0:
            raise GridError("radial nodes must be nonnegative")
        object.__setattr__(self, "nodes", r)
        object.__setattr__(self, "values", v)


def log_uniform_radial_nodes(grid: LineGrid) -> np.ndarray:
    """Radial nodes r = exp(-s) matching a line grid, in increasing order."""
    return np.exp(-grid.s[::-1])


def save_profile(path: Union[str, Path], profile: Union[LineProfile, RadialProfile]) -> None:
    lines = []
    if isinstance(profile, LineProfile):
        p = profile.params
        lines.append("# kind=line")
        lines.append(f"# n={p.n}")
        lines.append(f"# alpha={float(p.alpha):.17g}")
        lines.append(f"# q={float(p.q):.17g}")
        xs, ys = profile.grid.s, profile.values
    else:
        lines.append("# kind=radial")
        lines.append(f"# n={profile.n}")
        xs, ys = profile.nodes, profile.values
    for x, y in zip(xs, ys):
        lines.append(f"{x:.17g} {y:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_profile(path: Union[str, Path]) -> RadialProfile:
    """Read a radial profile file; line profiles are written, not read."""
    header = {}
    xs, ys = [], []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, val = body.split("=", 1)
                header[key.strip()] = val.strip()
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GridError(f"bad profile line: {raw!r}")
        xs.append(float(parts[0]))
        ys.append(float(parts[1]))
    kind = header.get("kind")
    if kind != "radial":
        raise GridError(f"need a radial profile (kind=radial), got kind={kind!r}")
    return RadialProfile(nodes=np.array(xs), values=np.array(ys), n=int(header["n"]))
