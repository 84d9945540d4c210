"""Catalog of initial-data generators for scenario runs.

Every entry turns ``(spec, parameters, rng)`` into a function of spatial
points, so the same draw can be sampled on the run grid, on a refined grid,
or handed to the inf-convolution oracle.  A draw is fixed by the seed, the
parameters, the dimension and the box half-width; the cell count and the
time step do not enter it.  Its values are not bit-identical across array
shapes: random-trig evaluates ``x @ k``, which numpy rounds differently for
one point than for many, so a point sampled alone and the same point in a
batch can differ in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .grid import GridSpec
from .oscillation import build_constant_chain

__all__ = [
    "catalog_names",
    "catalog_summary",
    "make_initial_function",
    "validate_descriptor",
]

InitialFunction = Callable[[NDArray[np.float64]], NDArray[np.float64]]


def _zero(spec: GridSpec, params: dict, rng: np.random.Generator) -> InitialFunction:
    return lambda pts: np.zeros(np.asarray(pts).shape[:-1])


def _constant(
    spec: GridSpec, params: dict, rng: np.random.Generator
) -> InitialFunction:
    value = float(params.get("value", 1.0))
    return lambda pts: np.full(np.asarray(pts).shape[:-1], value)


def _cone(spec: GridSpec, params: dict, rng: np.random.Generator) -> InitialFunction:
    amplitude = float(params.get("amplitude", 1.0))
    offset = float(params.get("offset", 0.0))
    center = np.asarray(params.get("center", [0.0] * spec.dimension), dtype=float)
    if center.shape != (spec.dimension,):
        raise ValueError(
            f"cone center needs {spec.dimension} coordinates, got {center.tolist()}"
        )

    def fn(pts: NDArray[np.float64]) -> NDArray[np.float64]:
        return amplitude * np.linalg.norm(np.asarray(pts) - center, axis=-1) + offset

    return fn


def _sine_product(
    spec: GridSpec, params: dict, rng: np.random.Generator
) -> InitialFunction:
    amplitude = float(params.get("amplitude", 1.0))
    frequency = float(params.get("frequency", 1.0))
    scale = np.pi * frequency / spec.half_width

    def fn(pts: NDArray[np.float64]) -> NDArray[np.float64]:
        return amplitude * np.prod(np.sin(scale * np.asarray(pts)), axis=-1)

    return fn


def _random_trig(
    spec: GridSpec, params: dict, rng: np.random.Generator
) -> InitialFunction:
    """Band-limited trigonometric sum, sup-bounded by ``amplitude + |offset|``."""
    amplitude = float(params.get("amplitude", 1.0))
    offset = float(params.get("offset", 0.0))
    bandwidth = int(params.get("bandwidth", 3))
    n_modes = int(params.get("n_modes", 8))
    if bandwidth < 1:
        raise ValueError(f"bandwidth must be >= 1, got {bandwidth}")
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    waves = rng.integers(-bandwidth, bandwidth + 1, size=(n_modes, spec.dimension))
    dead = np.all(waves == 0, axis=1)
    while np.any(dead):
        waves[dead] = rng.integers(
            -bandwidth, bandwidth + 1, size=(int(dead.sum()), spec.dimension)
        )
        dead = np.all(waves == 0, axis=1)
    coeff = rng.standard_normal(n_modes)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=n_modes)
    mass = float(np.abs(coeff).sum())
    if mass > 0.0:
        coeff = coeff * (amplitude / mass)
    freq = np.pi * waves / spec.half_width

    def fn(pts: NDArray[np.float64]) -> NDArray[np.float64]:
        x = np.asarray(pts, dtype=np.float64)
        out = np.full(x.shape[:-1], offset)
        for c, k, ph in zip(coeff, freq, phase):
            out = out + c * np.cos(x @ k + ph)
        return out

    return fn


def _barrier_slice(
    spec: GridSpec, params: dict, rng: np.random.Generator
) -> InitialFunction:
    try:
        p = float(params["p"])
        lam = float(params["lambda"])
    except KeyError as missing:
        raise ValueError(
            f"barrier-slice needs explicit {missing.args[0]!r}"
        ) from None
    alpha = float(params.get("alpha", 1.0))
    t = float(params.get("time", -2.0))
    chain = build_constant_chain(spec.dimension, p, lam, alpha)
    plateau = -2.0 + chain.barrier_height
    drop = chain.barrier_height / 8.0 * (t + 2.0)

    def fn(pts: NDArray[np.float64]) -> NDArray[np.float64]:
        radii = np.linalg.norm(np.asarray(pts), axis=-1)
        return np.minimum(
            plateau, -2.0 - drop + chain.barrier_slope * (1.0 - radii)
        )

    return fn


@dataclass(frozen=True)
class _CatalogEntry:
    make: Callable[[GridSpec, dict, np.random.Generator], InitialFunction]
    parameters: frozenset[str]
    summary: str


_CATALOG: dict[str, _CatalogEntry] = {
    "zero": _CatalogEntry(_zero, frozenset(), "identically zero"),
    "constant": _CatalogEntry(_constant, frozenset({"value"}), "flat value"),
    "cone": _CatalogEntry(
        _cone,
        frozenset({"amplitude", "center", "offset"}),
        "amplitude * |x - center| + offset",
    ),
    "sine-product": _CatalogEntry(
        _sine_product,
        frozenset({"amplitude", "frequency"}),
        "separable sine, one period per box at frequency 1",
    ),
    "random-trig": _CatalogEntry(
        _random_trig,
        frozenset({"amplitude", "offset", "bandwidth", "n_modes"}),
        "seeded band-limited trigonometric sum",
    ),
    "barrier-slice": _CatalogEntry(
        _barrier_slice,
        frozenset({"p", "lambda", "alpha", "time"}),
        "comparison barrier sampled at one time",
    ),
}


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))


def catalog_summary() -> dict[str, str]:
    return {name: _CATALOG[name].summary for name in catalog_names()}


def validate_descriptor(name: str, parameters: dict | None) -> None:
    """Reject unknown catalog names, unknown parameter keys, and parameter
    values (or list elements, such as a ``center``) that are not finite
    numbers, with a message naming them."""
    entry = _CATALOG.get(name)
    if entry is None:
        raise ValueError(
            f"unknown initial data {name!r}; catalog has {', '.join(catalog_names())}"
        )
    for key in parameters or {}:
        if key not in entry.parameters:
            raise ValueError(
                f"unknown parameter {key!r} for initial data {name!r}; "
                f"accepted: {', '.join(sorted(entry.parameters)) or 'none'}"
            )
        value = parameters[key]
        try:
            finite = bool(np.all(np.isfinite(np.asarray(value, dtype=float))))
        except (TypeError, ValueError):
            finite = False
        if not finite:
            raise ValueError(
                f"parameter {key!r} of initial data {name!r} must be a "
                f"finite number, got {value!r}"
            )


def make_initial_function(
    spec: GridSpec,
    name: str,
    parameters: dict | None = None,
    seed: int = 0,
) -> InitialFunction:
    """Build the named generator's draw as a function of point arrays."""
    validate_descriptor(name, parameters)
    rng = np.random.default_rng(seed)
    return _CATALOG[name].make(spec, dict(parameters or {}), rng)

