"""Deterministic 2D value noise for procedural terrain generation.

A light-weight substitute for the Perlin/simplex noise used by Minecraft-like
terrain generators: seeded lattice value noise with smooth interpolation,
composed into octaves by :class:`LayeredNoise`.  Fully deterministic for a
given seed, so generated chunks are identical whether they are produced by the
local generator or inside a (simulated) serverless function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

_CORNERS = np.array([0, 1])


def _octave_layers(seed_terms: np.ndarray, scales: np.ndarray,
                   x: np.ndarray | float, z: np.ndarray | float) -> np.ndarray:
    """Value noise in [0, 1) for every octave in one pass: ``[octave, *broadcast(x, z)]``.

    Octave ``k`` samples at ``(x, z) / scales[k]``: the four surrounding integer
    lattice points get a pseudo-random value from a 64-bit integer hash that
    depends only on ``(seed_terms[k], ix, iz)`` (overflow in the array
    arithmetic wraps, which is exactly what an integer hash wants), blended
    bilinearly with smoothstep weights.  ``x`` broadcasts against ``z`` and
    everything that depends on one of them only runs on that axis' own shape.
    """
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    ndim = max(x.ndim, z.ndim)
    scales = scales.reshape((-1,) + (1,) * ndim)
    x = x.reshape((1,) * (ndim - x.ndim) + x.shape) / scales
    z = z.reshape((1,) * (ndim - z.ndim) + z.shape) / scales
    x_floor = np.floor(x)
    z_floor = np.floor(z)
    tx = x - x_floor
    tz = z - z_floor
    tx = tx * tx * (3.0 - 2.0 * tx)  # smoothstep
    tz = tz * tz * (3.0 - 2.0 * tz)
    ix = np.add.outer(_CORNERS, x_floor.astype(np.int64))  # [corner, octave, ...]
    iz = np.add.outer(_CORNERS, z_floor.astype(np.int64))
    h = ((ix * np.int64(374761393))[:, np.newaxis]
         + (iz * np.int64(668265263) + seed_terms.reshape(scales.shape)))
    h = (h ^ (h >> 13)) * np.int64(1274126177)
    h = h ^ (h >> 16)
    # [x corner, z corner, octave, ...]
    values = (h & np.int64(0x7FFFFFFF)).astype(np.float64) / float(0x7FFFFFFF)
    z_edges = values[0] * (1 - tx) + values[1] * tx
    return z_edges[0] * (1 - tz) + z_edges[1] * tz


@dataclass(frozen=True)
class ValueNoise2D:
    """Smooth 2D value noise with values in [0, 1)."""

    seed: int
    scale: float = 32.0

    def sample(self, x: np.ndarray | float, z: np.ndarray | float) -> np.ndarray:
        """Sample noise at world coordinates (x, z), as :meth:`LayeredNoise.sample` does."""
        return LayeredNoise(seed=self.seed, octaves=1, base_scale=self.scale).sample(x, z)


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

    def sample(self, x: np.ndarray | float, z: np.ndarray | float) -> np.ndarray:
        """Sample layered noise in [0, 1) at world coordinates (x, z).

        Accepts scalars or arrays; ``x`` broadcasts against ``z`` and the result
        has the broadcast shape (a NumPy scalar for two scalars).
        """
        return sample_fields((self,), x, z)[0]


def sample_fields(fields: Sequence[LayeredNoise], x: np.ndarray | float,
                  z: np.ndarray | float) -> list[np.ndarray]:
    """``[noise.sample(x, z) for noise in fields]`` from one pass of the kernel."""
    layers = iter(_octave_layers(
        np.concatenate([noise._seed_terms for noise in fields]),
        np.concatenate([noise._scales for noise in fields]), x, z))
    samples = []
    for noise in fields:
        total = 0.0
        for amplitude in noise._amplitudes:  # in octave order: float sums do not re-associate
            total = total + amplitude * next(layers)
        samples.append(total / sum(noise._amplitudes))
    return samples
