"""Hamiltonian catalog and coercivity envelopes.

Every Hamiltonian here is superlinear in the gradient: it is pinched between
power-law envelopes

    (1/lam) * |P|^p - lam  <=  H(t, x, P)  <=  lam * |P|^p + lam

for some growth constant ``lam >= 1`` and exponent ``p > 1``.  The catalog
covers space-homogeneous power laws, scaled power laws with a constant
offset, rough checkerboard coefficients with contrast ``{1/lam, lam}`` at a
given cell size, and piecewise-constant tabulated coefficients.  Affine
reparametrizations (used by the zoom machinery) wrap any of these, and a
reparametrization of a reparametrization composes into one, so every
Hamiltonian here is one power form ``A(t, x) * |P|^p + B`` and all share
one evaluation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .grid import _KEYS, GridSpec, ScalarField, to_json

__all__ = [
    "CoercivityEnvelope",
    "HamiltonianSpec",
    "TabulatedCoefficient",
    "TransformedHamiltonian",
    "CoercivityReport",
    "GaugedField",
    "coercivity_check",
]

# The fields each kind reads besides ``kind`` and ``p``.
KINDS = {
    "power-law": (),
    "scaled-power-law": ("coefficient", "offset"),
    "rough-coefficient": ("lam", "eta"),
    "tabulated": ("table",),
}


@dataclass(frozen=True)
class CoercivityEnvelope:
    """Growth constant ``lam >= 1`` and exponent ``p > 1`` of the pinching bounds."""

    lam: float
    p: float

    def __post_init__(self) -> None:
        if self.lam < 1.0:
            raise ValueError(f"envelope constant must be >= 1, got {self.lam}")
        if self.p <= 1.0:
            raise ValueError(f"exponent must exceed 1, got {self.p}")

    def lower(self, pnorm: NDArray[np.float64] | float) -> NDArray[np.float64] | float:
        return np.asarray(pnorm) ** self.p / self.lam - self.lam

    def upper(self, pnorm: NDArray[np.float64] | float) -> NDArray[np.float64] | float:
        return self.lam * np.asarray(pnorm) ** self.p + self.lam


@dataclass(frozen=True)
class TabulatedCoefficient:
    """Piecewise-constant coefficient on a coarse ``(t, x)`` lattice.

    ``t_edges`` has one more entry than there are time bins and increases
    strictly; spatial cells tile ``[-half_width, half_width]^dimension``
    uniformly, with ``half_width > 0``.  Lookups clamp to the nearest bin,
    so evaluation is defined everywhere.
    """

    dimension: int
    t_edges: tuple[float, ...]
    half_width: float
    cells_per_axis: int
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        n_bins = len(self.t_edges) - 1
        if n_bins < 1:
            raise ValueError("need at least two time edges")
        if any(b <= a for a, b in zip(self.t_edges, self.t_edges[1:])):
            raise ValueError(f"t_edges must increase strictly, got {list(self.t_edges)}")
        if not self.half_width > 0.0:
            raise ValueError(f"table half_width must be positive, got {self.half_width}")
        expected = n_bins * self.cells_per_axis**self.dimension
        if len(self.values) != expected:
            raise ValueError(
                f"table has {len(self.values)} values, lattice expects {expected}"
            )
        if min(self.values) <= 0.0:
            raise ValueError("tabulated coefficients must be positive")

    @functools.cached_property
    def _array(self) -> NDArray[np.float64]:
        """``values`` as a read-only ``(time bins, *cells)`` array, built once."""
        arr = np.asarray(self.values, dtype=np.float64).reshape(
            len(self.t_edges) - 1, *(self.cells_per_axis,) * self.dimension
        )
        arr.setflags(write=False)
        return arr

    def lookup(self, t: float, x: NDArray[np.float64]) -> NDArray[np.float64]:
        arr = self._array
        ti = int(np.clip(np.searchsorted(self.t_edges, t, side="right") - 1,
                         0, len(self.t_edges) - 2))
        width = 2.0 * self.half_width / self.cells_per_axis
        idx = np.floor((np.asarray(x) + self.half_width) / width).astype(int)
        idx = np.clip(idx, 0, self.cells_per_axis - 1)
        return arr[ti][tuple(np.moveaxis(idx, -1, 0))]


@dataclass(frozen=True)
class HamiltonianSpec:
    """One catalog Hamiltonian ``H(t, x, P) = a(t, x) * |P|^p + offset``.

    Attributes:
        kind: one of ``power-law`` (a = 1), ``scaled-power-law`` (constant
            ``coefficient`` and ``offset``), ``rough-coefficient``
            (checkerboard ``a(x) in {1/lam, lam}`` with cell size ``eta``),
            or ``tabulated`` (piecewise-constant ``table``).
        p: gradient growth exponent, > 1.

    A field that the kind does not read (see ``KINDS``) must keep its
    default.
    """

    kind: str
    p: float
    coefficient: float = 1.0
    offset: float = 0.0
    lam: float = 1.0
    eta: float = 0.25
    table: TabulatedCoefficient | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown Hamiltonian kind {self.kind!r}; know {tuple(KINDS)}"
            )
        reads = ("kind", "p", *KINDS[self.kind])
        for f in fields(self):
            if f.name not in reads and getattr(self, f.name) != f.default:
                key = _KEYS.get(f.name, f.name)
                raise ValueError(f"a {self.kind} Hamiltonian does not read {key!r}")
        if self.p <= 1.0:
            raise ValueError(f"exponent must exceed 1, got {self.p}")
        if self.kind == "scaled-power-law" and not self.coefficient > 0.0:
            raise ValueError(f"coefficient must be positive, got {self.coefficient}")
        if self.kind == "rough-coefficient":
            if not self.lam >= 1.0:
                raise ValueError(f"rough contrast needs lam >= 1, got {self.lam}")
            if not self.eta > 0.0:
                raise ValueError(f"eta must be positive, got {self.eta}")
        if self.kind == "tabulated" and self.table is None:
            raise ValueError("tabulated kind requires a table")

    @property
    def static_coefficient(self) -> bool:
        """Whether ``a(t, x)`` ignores ``t`` (every kind but ``tabulated``)."""
        return self.kind != "tabulated"

    def coefficient_field(
        self, t: float, x: NDArray[np.float64]
    ) -> NDArray[np.float64] | float:
        """The coefficient ``a(t, x)``, the power form's ``A``, at the points
        ``x`` (last axis spatial)."""
        if self.kind == "power-law":
            return 1.0
        if self.kind == "scaled-power-law":
            return self.coefficient
        if self.kind == "rough-coefficient":
            parity = np.sum(
                np.floor(np.asarray(x) / self.eta).astype(np.int64), axis=-1
            ) % 2
            return np.where(parity == 0, self.lam, 1.0 / self.lam)
        assert self.table is not None
        return self.table.lookup(t, x)

    def eval(
        self,
        t: float,
        x: NDArray[np.float64],
        grad: NDArray[np.float64],
        coefficient: NDArray[np.float64] | float | None = None,
        out: NDArray[np.float64] | None = None,
    ) -> NDArray[np.float64]:
        """The power form ``coefficient_field(t, x) * |P|^p + offset``, on
        arrays whose last axis indexes the spatial components.

        ``coefficient``, when given, stands in for ``coefficient_field(t,
        x)`` and ``x`` is not read.  ``|P|^p`` is ``(sum_i P_i^2)^(p/2)``,
        the squares summed in axis order.  With ``out``, shaped like the
        value, the value is written there and ``grad`` serves as scratch:
        its components are squared in place.  Without, ``grad`` is left as
        it was.
        """
        if coefficient is None:
            coefficient = self.coefficient_field(t, np.asarray(x, dtype=np.float64))
        if out is None:
            grad = np.array(np.atleast_1d(grad), dtype=np.float64)
            out = np.empty(np.broadcast_shapes(np.shape(coefficient), grad.shape[:-1]))
        np.square(grad[..., 0], out=out)
        for axis in range(1, grad.shape[-1]):
            np.add(out, np.square(grad[..., axis], out=grad[..., axis]), out=out)
        # ``out **= exponent`` as numpy runs it: no call for 1, a square for 2
        exponent = 0.5 * self.p
        if exponent == 2.0:
            np.square(out, out=out)
        elif exponent != 1.0:
            np.power(out, exponent, out=out)
        np.multiply(out, coefficient, out=out)
        offset = self.offset
        if offset:  # a zero adds nothing; a NaN is added
            np.add(out, offset, out=out)
        return out

    @property
    def _coefficient_bounds(self) -> tuple[float, float]:
        """``(sup a, sup 1/a)`` over every ``(t, x)``.  The rough kind's are
        both ``lam`` as given: ``1/(1/lam)`` can differ from it in the last
        bit, and ``lam`` is the declared envelope's constant."""
        if self.kind == "power-law":
            return 1.0, 1.0
        if self.kind == "scaled-power-law":
            return self.coefficient, 1.0 / self.coefficient
        if self.kind == "rough-coefficient":
            return self.lam, self.lam
        assert self.table is not None
        return max(self.table.values), 1.0 / min(self.table.values)

    @property
    def sup_coefficient(self) -> float:
        return self._coefficient_bounds[0]

    def dissipation_bound(self, pnorm: float) -> float:
        """Upper bound for ``|dH/dP|`` over ``|P| <= pnorm`` (per axis and total)."""
        return self.sup_coefficient * self.p * max(pnorm, 0.0) ** (self.p - 1.0)

    def declared_envelope(self) -> CoercivityEnvelope:
        """Tightest catalog envelope this kind is guaranteed to satisfy."""
        lam = max(1.0, *self._coefficient_bounds, abs(self.offset))
        return CoercivityEnvelope(lam=lam, p=self.p)

    def to_config(self) -> dict:
        """``kind``, ``p`` and the fields this kind reads, as JSON."""
        reads = ("kind", "p", *KINDS[self.kind])
        out = to_json(self)
        return {key: out[key] for f, key in zip(fields(self), out) if f.name in reads}


@dataclass(frozen=True)
class TransformedHamiltonian:
    """Affine reparametrization of a catalog Hamiltonian.

    Evaluates ``out_scale * (base(t_shift + t_scale*t, x_shift + x_scale*x,
    grad_scale*P) + const)``.  This is exactly the family produced when a
    solution is rescaled ``u(t, x) -> s * (u(a t, b x) - d)``: the rescaled
    function solves the equation with ``out_scale = s*a``, ``grad_scale =
    1/(s*b)`` applied to the original Hamiltonian.

    A transform of a transform composes on construction into one affine
    map, so ``base`` is always a :class:`HamiltonianSpec`: an outer ``(o, c,
    g)`` over an inner ``(o', c', g')`` is ``(o' o, c' + c/o', g g')``, and
    the time and space maps compose alike.  The value is the power form
    with ``A = out_scale |grad_scale|^p a`` and ``B = out_scale (offset +
    const)``.  A zero ``out_scale``, which composing divides by, is refused.
    """

    base: HamiltonianSpec
    out_scale: float = 1.0
    t_scale: float = 1.0
    x_scale: float = 1.0
    grad_scale: float = 1.0
    t_shift: float = 0.0
    x_shift: tuple[float, ...] = ()
    const: float = 0.0

    def __post_init__(self) -> None:
        if self.out_scale == 0.0:
            raise ValueError("out_scale must be nonzero")
        inner = self.base
        if isinstance(inner, TransformedHamiltonian):
            shift = inner._inner_x(self.x_shift).tolist() if self.x_shift else ()
            composed = dict(
                base=inner.base, out_scale=inner.out_scale * self.out_scale,
                t_scale=inner.t_scale * self.t_scale, x_scale=inner.x_scale * self.x_scale,
                grad_scale=self.grad_scale * inner.grad_scale,
                t_shift=inner.t_shift + inner.t_scale * self.t_shift,
                x_shift=tuple(shift) or inner.x_shift,
                const=inner.const + self.const / inner.out_scale)
            for name, value in composed.items():
                object.__setattr__(self, name, value)

    # the catalog's one evaluation, bound here so each class's is traced apart
    eval = HamiltonianSpec.eval
    dissipation_bound = HamiltonianSpec.dissipation_bound

    @property
    def p(self) -> float:
        return self.base.p

    @property
    def static_coefficient(self) -> bool:
        return self.base.static_coefficient

    @property
    def offset(self) -> float:
        """The power form's ``B = out_scale (offset + const)``."""
        return self.out_scale * (self.base.offset + self.const)

    @property
    def sup_coefficient(self) -> float:
        return abs(self.out_scale) * abs(self.grad_scale) ** self.p * (
            self.base.sup_coefficient)

    def _inner_x(self, x) -> NDArray[np.float64]:
        shift = np.asarray(self.x_shift) if self.x_shift else 0.0
        return shift + self.x_scale * np.asarray(x, dtype=np.float64)

    def coefficient_field(self, t, x):
        """``A``: the base coefficient at the mapped time and points, scaled."""
        return self.out_scale * abs(self.grad_scale) ** self.p * (
            self.base.coefficient_field(self.t_shift + self.t_scale * t,
                                        self._inner_x(x)))


@dataclass(frozen=True)
class CoercivityReport:
    """Worst slacks of the two envelope inequalities over a sample cloud."""

    min_lower_slack: float
    min_upper_slack: float
    n_samples: int
    violations: tuple[dict, ...]


def coercivity_check(
    h: HamiltonianSpec | TransformedHamiltonian,
    env: CoercivityEnvelope,
    times: Sequence[float],
    points: NDArray[np.float64],
    grads: NDArray[np.float64],
    max_reported: int = 8,
) -> CoercivityReport:
    """Check the pinching bounds on the product cloud ``times x points x grads``.

    ``points`` has shape ``(M, N)`` and ``grads`` shape ``(K, N)``; every
    combination is evaluated.  A violation is any strictly negative slack.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    grads = np.atleast_2d(np.asarray(grads, dtype=np.float64))
    pnorm = np.linalg.norm(grads, axis=-1)
    low = np.asarray(env.lower(pnorm))
    up = np.asarray(env.upper(pnorm))
    min_lo = math.inf
    min_up = math.inf
    violations: list[dict] = []
    n = 0
    for t in times:
        vals = h.eval(float(t), points[:, None, :], grads[None, :, :])
        slack_lo = vals - low[None, :]
        slack_up = up[None, :] - vals
        n += vals.size
        min_lo = min(min_lo, float(slack_lo.min()))
        min_up = min(min_up, float(slack_up.min()))
        bad = np.argwhere((slack_lo < 0.0) | (slack_up < 0.0))
        for i, k in bad[: max(0, max_reported - len(violations))]:
            violations.append(
                {
                    "t": float(t),
                    "x": tuple(points[i]),
                    "grad": tuple(grads[k]),
                    "lower_slack": float(slack_lo[i, k]),
                    "upper_slack": float(slack_up[i, k]),
                }
            )
    return CoercivityReport(
        min_lower_slack=min_lo,
        min_upper_slack=min_up,
        n_samples=n,
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class GaugedField:
    """``field`` read with ``rate * t`` added, only on the slices asked for."""

    field: ScalarField
    rate: float = 0.0

    @property
    def spec(self) -> GridSpec:
        return self.field.spec

    def rows(self, lo: int, hi: int) -> NDArray[np.float64]:
        """Slices ``lo:hi`` plus ``rate * t``; the field's own rows at rate 0."""
        values, times = self.field.rows(lo, hi), self.spec.times()[lo:hi]
        if self.rate == 0.0:
            return values
        return values + self.rate * times[(...,) + (None,) * self.spec.dimension]

