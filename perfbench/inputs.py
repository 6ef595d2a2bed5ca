"""Seeded scenario generator for the benchmark workloads.

Every file written here uses ``initial.mode: "explicit"``, so flocklab only
sees finished documents and the benchmark owns every random draw.  The same
seed always writes the same bytes.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np

# Seed at which the bundled files are used as they are and the stored
# reference values apply.
DEFAULT_SEED = 0

# Collision flock: a lattice with this spacing, each site jittered by at most
# JITTER per coordinate, keeps every initial pair at squared distance
# >= (SPACING - 2 * JITTER) ** 2 = 1.0, four times d0 = 0.25.
SPACING = 1.6
JITTER = 0.3


def _substream(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng([seed, block])


def _rescale(z: np.ndarray, target: float) -> np.ndarray:
    """Shrink draws about their centroid to an exact per-coordinate spread."""
    center = z.mean(axis=0)
    current = float((z.max(axis=0) - z.min(axis=0)).max())
    return center + (z - center) * (target / current)


def collision_flock(seed: int, n: int = 50) -> dict:
    """example3-style collision_free flock on a jittered square lattice."""
    rng = _substream(seed, 0)
    side = math.ceil(math.sqrt(n))
    sites = SPACING * np.array([(a, b) for a in range(side) for b in range(side)], dtype=float)
    x = sites[np.sort(rng.permutation(len(sites))[:n])]
    x = x + rng.uniform(-JITTER, JITTER, size=x.shape) - x.mean(axis=0)
    v = _rescale(rng.uniform(-3.0, 3.0, size=(n, 2)), 6.0)
    return {
        "name": f"bench_collision_n{n}",
        "variant": "collision_free",
        "n": n,
        "r": 2,
        "seed": seed,
        "coupling": {"family": "modulated", "w": 10.0, "delta": 1.0,
                     "beta": {"mode": "constant", "value": 1.4}},
        "repulsion": {"d0": 0.25, "phi": 1.5,
                      "coeffs": {"mode": "seeded_uniform", "lo": 1.0, "hi": 2.0}},
        "initial": {"mode": "explicit", "x": x.tolist(), "v": v.tolist()},
        "integrator": {"t_end": 10.0, "sample_dt": 0.01},
        "certificate": {},
    }


# The Lorenz trapping box flocklab's lorenz() declares, copied so that the
# inputs do not change with the program under test.
_LORENZ_BOX = np.array([[-17.0, 17.5], [-22.0, 24.5], [7.0, 45.0]])


def sync_flock(seed: int, n: int = 40) -> dict:
    """example2-style stiff Lorenz flock (w = 150) with velocities in the box.

    Velocities are drawn in the Lorenz trapping box and shrunk about their
    centroid to spread 9; the box is convex, so they stay inside it.
    """
    rng = _substream(seed, 1)
    x = _rescale(rng.uniform(-4.5, 4.5, size=(n, 3)), 9.0)
    v = _rescale(rng.uniform(_LORENZ_BOX[:, 0], _LORENZ_BOX[:, 1], size=(n, 3)), 9.0)
    return {
        "name": f"bench_sync_lorenz_n{n}",
        "variant": "sync",
        "n": n,
        "r": 3,
        "seed": seed,
        "coupling": {"family": "modulated", "w": 150.0, "delta": 0.5,
                     "beta": {"mode": "seeded_uniform", "lo": 0.5, "hi": 1.4}},
        "internal": {"name": "lorenz"},
        "initial": {"mode": "explicit", "x": x.tolist(), "v": v.tolist()},
        "integrator": {"t_end": 2.0, "sample_dt": 0.01},
        "certificate": {"k_source": "user", "k_value": 39.4, "relaxed": True},
    }


def sweep_base(bundled: dict, seed: int) -> dict:
    """example1_sweep, with its explicit initial state redrawn off the default seed.

    Velocities stay inside the logistic-cosine invariant box [1, 2], which
    the region K bound of every sweep point relies on.
    """
    doc = copy.deepcopy(bundled)
    if seed != DEFAULT_SEED:
        rng = _substream(seed, 2)
        n = doc["n"]
        doc["initial"]["x"] = np.sort(rng.uniform(0.0, 1.0, size=n)).tolist()
        doc["initial"]["v"] = rng.uniform(1.1, 1.9, size=n).tolist()
    return doc


def write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path
