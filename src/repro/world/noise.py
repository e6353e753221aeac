"""Deterministic 2D value noise for procedural terrain generation.

A light-weight substitute for the Perlin/simplex noise used by Minecraft-like
terrain generators: seeded lattice value noise with smooth interpolation,
composed into octaves by :class:`LayeredNoise`.  Fully deterministic for a
given seed, so generated chunks are identical whether they are produced by the
local generator or inside a (simulated) serverless function.

Noise is only ever sampled on grids.  The one kernel, :func:`grid_noise`,
samples many grids in one pass, one *row* per (octave, grid) pair: every
octave of every field on a whole batch of chunks.  A grid of ``n × m`` points
spans only a few lattice cells per axis, so each row hashes just the
``[Lx, Lz]`` patch of lattice corners its grid touches, not four corners per
point.  Every sample
still goes through the same IEEE operations in the same order as a per-point
evaluation, so the result does not depend on how rows are stacked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

_HASH_X = np.int64(374761393)
_HASH_Z = np.int64(668265263)
_HASH_MIX = np.int64(1274126177)
_VALUE_MASK = np.int64(0x7FFFFFFF)


def _axis(coords: np.ndarray, scales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smoothstep weights and int64 lattice floors of one grid axis per row."""
    scaled = coords / scales
    floor = np.floor(scaled)
    weight = scaled - floor
    return weight * weight * (3.0 - 2.0 * weight), floor.astype(np.int64)


def grid_noise(seed_terms: np.ndarray, scales: np.ndarray,
               xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Value noise in [0, 1) for every octave on every grid: ``[octaves, grids, n, m]``.

    Octave ``k`` samples grid ``g``, the points ``xs[g] × zs[g]`` (``xs`` is
    ``[grids, n]``, ``zs`` is ``[grids, m]``, each row ascending), at
    ``(x, z) / scales[k]``; each (octave, grid) pair is one *row*.  The
    integer lattice points around a sample get a pseudo-random value from a
    64-bit integer hash of ``(seed_terms[k], ix, iz)`` (overflow in the array
    arithmetic wraps, which is exactly what an integer hash wants), blended
    bilinearly with smoothstep weights: first along x, then along z.

    The hash runs once on each row's patch of lattice points, counted from the
    row's lowest floor on each axis.  A row whose patch would be wider than
    ``n + 2`` (or ``m + 2``) points is not a compact grid and raises
    ``ValueError``; unit-step axes at scale >= 1 never do.  The result is a
    z-major view: its last two axes are transposed in memory.
    """
    octaves, grids = len(scales), len(xs)
    n, m = xs.shape[1], zs.shape[1]
    rows = octaves * grids
    scales = scales.reshape(octaves, 1, 1)
    tx, ix = _axis(xs, scales)  # [octaves, grids, n], then flattened to rows
    tz, iz = _axis(zs, scales)
    ix, iz = ix.reshape(rows, n), iz.reshape(rows, m)
    x0, z0 = ix[:, :1], iz[:, :1]
    ix = ix - x0  # offsets into the row's patch
    iz = iz - z0
    patch_x = int(ix[:, -1].max()) + 2
    patch_z = int(iz[:, -1].max()) + 2
    if patch_x > n + 2 or patch_z > m + 2:
        raise ValueError(
            f"a row spans a {patch_x} x {patch_z} lattice patch; a compact "
            f"{n} x {m} grid spans at most {n + 2} x {m + 2}"
        )
    # The patch is laid out z-major, [rows, patch_z, patch_x], so that both
    # blends below read contiguous runs.
    lattice_x = ((x0 + np.arange(patch_x)) * _HASH_X).reshape(octaves, grids, 1, patch_x)
    lattice_z = ((z0 + np.arange(patch_z)) * _HASH_Z).reshape(octaves, grids, patch_z, 1)
    h = lattice_x + (lattice_z + seed_terms.reshape(octaves, 1, 1, 1))
    h = (h ^ (h >> 13)) * _HASH_MIX
    h = h ^ (h >> 16)
    values = (h & _VALUE_MASK).astype(np.float64)
    values /= float(_VALUE_MASK)
    # x: a flat take of every sample's two lattice columns on every patch row
    # -> z_edges [rows, patch_z, n]
    below = ix.reshape(rows, 1, n) + np.arange(
        0, rows * patch_z * patch_x, patch_x).reshape(rows, patch_z, 1)
    z_edges = values.take(below)
    below += 1
    upper = values.take(below)
    tx = tx.reshape(rows, 1, n)
    z_edges *= 1 - tx
    upper *= tx
    z_edges += upper
    # z: a row take of every sample's two x-blended patch rows -> [rows, m, n]
    z_edges = z_edges.reshape(rows * patch_z, n)
    left = iz + np.arange(0, rows * patch_z, patch_z).reshape(rows, 1)
    samples = z_edges.take(left, axis=0)
    left += 1
    upper = z_edges.take(left, axis=0)
    tz = tz.reshape(rows, m, 1)
    samples *= 1 - tz
    upper *= tz
    samples += upper
    return samples.reshape(octaves, grids, m, n).transpose(0, 1, 3, 2)


@dataclass(frozen=True)
class LayeredNoise:
    """Octave composition of value noise (fractal Brownian motion)."""

    seed: int
    octaves: int = 4
    base_scale: float = 64.0
    persistence: float = 0.5
    lacunarity: float = 2.0
    # per octave, derived once: lattice-hash seed term, scale, amplitude
    _seed_terms: np.ndarray = field(init=False, repr=False, compare=False)
    _scales: np.ndarray = field(init=False, repr=False, compare=False)
    _amplitudes: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _normalizer: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.octaves < 1:
            raise ValueError("octaves must be >= 1")
        scales, amplitudes = [float(self.base_scale)], [1.0]
        for _ in range(1, self.octaves):
            scales.append(max(scales[-1] / self.lacunarity, 1.0))
            amplitudes.append(amplitudes[-1] * self.persistence)
        # Octave k hashes with seed + 1013 k.  The term is reduced modulo 2^62
        # in Python-int space so it fits an int64; every generated world
        # depends on this exact constant.
        seed_terms = [((int(self.seed) + 1013 * octave) * 1442695040888963407) % (2 ** 62)
                      for octave in range(self.octaves)]
        object.__setattr__(self, "_seed_terms", np.array(seed_terms, dtype=np.int64))
        object.__setattr__(self, "_scales", np.array(scales))
        object.__setattr__(self, "_amplitudes", tuple(amplitudes))
        object.__setattr__(self, "_normalizer", sum(amplitudes))


def sample_fields(fields: Sequence[LayeredNoise], xs: np.ndarray,
                  zs: np.ndarray) -> list[np.ndarray]:
    """Every field on every grid ``xs[g] × zs[g]``: one ``[grids, n, m]`` array per field.

    ``xs`` is ``[grids, n]`` and ``zs`` is ``[grids, m]``, each row ascending
    and compact (see :func:`grid_noise`); all octaves of all fields are one
    pass of the kernel.
    """
    layers = grid_noise(np.concatenate([noise._seed_terms for noise in fields]),
                        np.concatenate([noise._scales for noise in fields]), xs, zs)
    samples, octave = [], 0
    for noise in fields:
        total = 0.0
        for amplitude in noise._amplitudes:  # in octave order: float sums do not re-associate
            total = total + amplitude * layers[octave]
            octave += 1
        samples.append(total / noise._normalizer)
    return samples
