"""Catalog of initial-data generators for scenario runs.

Each generator is a frozen parameter dataclass: its fields are the JSON
keys of ``initial_data.parameters``, their defaults are the field
defaults, and ``__post_init__`` checks their ranges.  :func:`read_parameters`
reads one through :func:`grid.from_json` and checks the rules that need
the grid as well, without drawing anything; ``make(spec, rng)`` then turns
it into a function of spatial points, so the same draw can be sampled on
the run grid, on a refined grid, or handed to the inf-convolution oracle.
A draw is fixed by the seed, the parameters, the dimension and the box
half-width; the cell count and the time step do not enter it.  Its values
are not bit-identical across array shapes: random-trig evaluates ``x @ k``,
which numpy rounds differently for one point than for many, so a point
sampled alone and the same point in a batch can differ in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .grid import ConfigError, GridSpec, from_json

__all__ = [
    "make_initial_function",
    "read_parameters",
]

InitialFunction = Callable[[NDArray[np.float64]], NDArray[np.float64]]

# Most waves a random-trig draw may sum.
_MAX_MODES = 4096


class _Generator:
    """A catalog entry's parameters; ``make(spec, rng)`` draws from them."""

    def check(self, spec: GridSpec) -> object:
        """Rules that need the grid: none unless the generator has its own."""


@dataclass(frozen=True)
class Zero(_Generator):
    def make(self, spec: GridSpec, rng: np.random.Generator) -> InitialFunction:
        return lambda pts: np.zeros(np.asarray(pts).shape[:-1])


@dataclass(frozen=True)
class Constant(_Generator):
    value: float = 1.0

    def make(self, spec: GridSpec, rng: np.random.Generator) -> InitialFunction:
        return lambda pts: np.full(np.asarray(pts).shape[:-1], self.value)


@dataclass(frozen=True)
class Cone(_Generator):
    """``amplitude * |x - center| + offset``; ``center`` defaults to the origin."""

    amplitude: float = 1.0
    center: tuple[float, ...] | None = None
    offset: float = 0.0

    def check(self, spec: GridSpec) -> NDArray[np.float64]:
        """The center, which needs one coordinate per grid axis."""
        center = np.zeros(spec.dimension)
        if self.center is not None:
            center = np.asarray(self.center)
        if center.shape != (spec.dimension,):
            raise ValueError(
                f"cone center needs {spec.dimension} coordinates, got {center.tolist()}"
            )
        return center

    def make(self, spec: GridSpec, rng: np.random.Generator) -> InitialFunction:
        center = self.check(spec)

        def fn(pts: NDArray[np.float64]) -> NDArray[np.float64]:
            distance = np.linalg.norm(np.asarray(pts) - center, axis=-1)
            return self.amplitude * distance + self.offset

        return fn


@dataclass(frozen=True)
class SineProduct(_Generator):
    """Separable sine, one period per box at frequency 1."""

    amplitude: float = 1.0
    frequency: float = 1.0

    def make(self, spec: GridSpec, rng: np.random.Generator) -> InitialFunction:
        scale = np.pi * self.frequency / spec.half_width

        def fn(pts: NDArray[np.float64]) -> NDArray[np.float64]:
            return self.amplitude * np.prod(np.sin(scale * np.asarray(pts)), axis=-1)

        return fn


@dataclass(frozen=True)
class RandomTrig(_Generator):
    """Seeded band-limited trigonometric sum of ``n_modes`` waves with
    integer wave numbers in ``[-bandwidth, bandwidth]``, sup-bounded by
    ``amplitude + |offset|``."""

    amplitude: float = 1.0
    offset: float = 0.0
    bandwidth: int = 3
    n_modes: int = 8

    def __post_init__(self) -> None:
        if self.bandwidth < 1:
            raise ValueError(f"bandwidth must be >= 1, got {self.bandwidth}")
        if not 1 <= self.n_modes <= _MAX_MODES:
            raise ValueError(
                f"n_modes must lie in [1, {_MAX_MODES}], got {self.n_modes}"
            )

    def make(self, spec: GridSpec, rng: np.random.Generator) -> InitialFunction:
        n, band = self.n_modes, self.bandwidth
        waves = rng.integers(-band, band + 1, size=(n, spec.dimension))
        dead = np.all(waves == 0, axis=1)
        while np.any(dead):
            waves[dead] = rng.integers(
                -band, band + 1, size=(int(dead.sum()), spec.dimension)
            )
            dead = np.all(waves == 0, axis=1)
        coeff = rng.standard_normal(n)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=n)
        mass = float(np.abs(coeff).sum())
        if mass > 0.0:
            coeff = coeff * (self.amplitude / mass)
        freq = np.pi * waves / spec.half_width

        def fn(pts: NDArray[np.float64]) -> NDArray[np.float64]:
            x = np.asarray(pts, dtype=np.float64)
            out = np.full(x.shape[:-1], self.offset)
            for c, k, ph in zip(coeff, freq, phase):
                out = out + c * np.cos(x @ k + ph)
            return out

        return fn


_CATALOG: dict[str, type[_Generator]] = {
    "zero": Zero,
    "constant": Constant,
    "cone": Cone,
    "sine-product": SineProduct,
    "random-trig": RandomTrig,
}


def read_parameters(
    spec: GridSpec, name: str, parameters: dict | None = None
) -> _Generator:
    """The named generator's parameters read from their JSON object, with
    every rule checked, the grid's included; nothing is drawn.

    Raises:
        ConfigError: naming the generator, the key or the rule that fails.
    """
    cls = _CATALOG.get(name)
    if cls is None:
        raise ConfigError(
            f"initial_data: unknown initial data {name!r}; "
            f"catalog has {', '.join(sorted(_CATALOG))}"
        )
    where = "initial_data.parameters"
    params = from_json(cls, {} if parameters is None else parameters, where)
    try:
        params.check(spec)
    except (ValueError, ArithmeticError) as err:
        raise ConfigError(f"{where}: {err}") from None
    return params


def make_initial_function(
    spec: GridSpec,
    name: str,
    parameters: dict | None = None,
    seed: int = 0,
) -> InitialFunction:
    """Build the named generator's draw as a function of point arrays."""
    params = read_parameters(spec, name, parameters)
    return params.make(spec, np.random.default_rng(seed))
