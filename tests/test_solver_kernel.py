"""The solver's step kernel against a gather-and-stack step.

The reference below is the step written out in the kernel's operand
order: raw one-sided differences from an edge-padded copy built with
``np.take`` and ``np.concatenate``, the centered sums ``D+ + D-`` from
``np.stack``, the flat power form ``A (0.5/h)^p (sum D^2)^(p/2) + B`` with
``A`` and ``B`` computed by hand from the Hamiltonian's fields on every
call, the dissipation scaled by ``0.5 sigma / h``, and a trajectory copied
into its field at the end.  Every comparison is on the bytes, so signed
zeros count too.  The flat form is also checked, to rounding, against the
nested evaluation that affine reparametrizations had before they composed.
"""

import contextlib
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjreg import solver
from hjreg.grid import GridSpec, field_from_values
from hjreg.hamiltonians import (
    HamiltonianSpec,
    TabulatedCoefficient,
    TransformedHamiltonian,
)
from hjreg.solver import (
    SIGMA_INFLATION,
    SolveConfig,
    SolverError,
    solve,
)
from hjreg.solver import _SIGMA_FLOOR, _StepKernel

_MAX_CELLS = {1: 40, 2: 16, 3: 8}


def _one_sided_differences(u, axis):
    """Raw ``D+`` and ``D-``, not divided by the cell width."""
    first = np.take(u, [0], axis=axis)
    last = np.take(u, [-1], axis=axis)
    padded = np.concatenate([first, u, last], axis=axis)
    n = u.shape[axis]
    fwd = np.take(padded, np.arange(2, n + 2), axis=axis) - u
    bwd = u - np.take(padded, np.arange(0, n), axis=axis)
    return fwd, bwd


def _flat_form(h, t, x):
    """``A(t, x)`` and ``B`` of the power form, by hand from the fields."""
    if isinstance(h, TransformedHamiltonian):
        shift = np.asarray(h.x_shift) if h.x_shift else 0.0
        a = h.out_scale * abs(h.grad_scale) ** h.base.p * h.base.coefficient_field(
            h.t_shift + h.t_scale * t, shift + h.x_scale * x)
        return a, h.out_scale * (h.base.offset + h.const)
    return h.coefficient_field(t, x), h.offset


def _power_form(a, b, p, grad):
    """``a * (sum_i grad_i^2)^(p/2) + b``, the squares summed in axis order."""
    sq = grad[..., 0] ** 2
    for axis in range(1, grad.shape[-1]):
        sq = sq + grad[..., axis] ** 2
    out = a * sq ** (0.5 * p)
    return out + b if b else out


def _reference_step(u, spec, h, t, cfg, centers, step_index):
    jump_sum = np.zeros_like(u)
    central = []
    pnorm_sq = np.zeros_like(u)
    for axis in range(spec.dimension):
        fwd, bwd = _one_sided_differences(u, axis)
        central.append(fwd + bwd)
        jump_sum += fwd - bwd
        pnorm_sq += np.maximum(np.abs(fwd), np.abs(bwd)) ** 2
    grad = np.stack(central, axis=-1)

    pnorm_max = float(np.sqrt(pnorm_sq.max())) / spec.cell_width
    sigma_est = max(h.dissipation_bound(pnorm_max), 0.0)
    if cfg.sigma_mode == "fixed":
        sigma_diss = float(cfg.sigma_bound)
        if sigma_est > sigma_diss * (1.0 + 1e-9):
            raise SolverError(
                f"step {step_index}: sampled |dH/dP|={sigma_est:.3g} exceeds the "
                f"fixed dissipation bound {sigma_diss:.3g}",
                step_index,
            )
    else:
        sigma_diss = max(SIGMA_INFLATION * sigma_est, _SIGMA_FLOOR)

    width = spec.cell_width
    ratio_mono = spec.dt * spec.dimension * sigma_diss / width
    if ratio_mono > 1.0 + 1e-9:
        raise SolverError(
            f"step {step_index}: dissipation {sigma_diss:.3g} breaks monotonicity "
            f"(dt*N*sigma/h = {ratio_mono:.3g} > 1)",
            step_index,
        )
    margin = cfg.cfl_safety - spec.dt * spec.dimension * sigma_est / width
    if margin < 0.0:
        raise SolverError(
            f"step {step_index}: CFL violation, sampled sigma {sigma_est:.3g} "
            f"needs dt <= {cfg.cfl_safety * width / (spec.dimension * sigma_est):.3g} "
            f"but grid has dt={spec.dt}",
            step_index,
        )

    a, b = _flat_form(h, t, centers)
    hval = _power_form(a * (0.5 / width) ** h.p, b, h.p, grad)
    numerical = hval - 0.5 * sigma_diss / width * jump_sum
    update = -spec.dt * numerical
    u_next = u + update
    if not np.all(np.isfinite(u_next)):
        raise SolverError(f"step {step_index}: non-finite values produced", step_index)
    return u_next, margin, float(np.abs(update).max())


def kernel_step(f, h, i, cfg):
    """Slice ``i`` of ``f`` advanced by one step of the solver's kernel."""
    out = np.empty(f.spec.spatial_shape)
    _StepKernel(f.spec, h, cfg)(f.values[i], float(f.spec.times()[i]), i, out)
    return out


def _reference_solve(spec, h, init, cfg):
    if not np.all(np.isfinite(init)):
        raise SolverError("initial data contains non-finite values", 0)
    n_steps = spec.n_steps
    if cfg.max_steps is not None and n_steps > cfg.max_steps:
        raise SolverError(
            f"grid needs {n_steps} steps, exceeding max_steps={cfg.max_steps}", 0
        )
    centers = spec.centers()
    values = np.empty((spec.n_slices, *spec.spatial_shape))
    values[0] = init
    margins = np.empty(n_steps)
    updates = np.empty(n_steps)
    times = spec.times()
    for i in range(n_steps):
        values[i + 1], margins[i], updates[i] = _reference_step(
            values[i], spec, h, float(times[i]), cfg, centers, i
        )
    return field_from_values(spec, values).values, margins, updates


def _outcome(fn):
    """``("ok", result)`` or ``("abort", message, step_index)``."""
    try:
        return ("ok", fn())
    except SolverError as err:
        return ("abort", str(err), err.step_index)


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_same_outcome(got, want):
    assert got[0] == want[0], (got[1:] if got[0] == "abort" else want[1:])
    if want[0] == "abort":
        assert got[1:] == want[1:]
        return
    assert len(got[1]) == len(want[1])
    for a, b in zip(got[1], want[1]):
        assert _same(a, b)


@st.composite
def base_hamiltonians(draw, dim):
    kind = draw(st.sampled_from(
        ["power-law", "scaled-power-law", "rough-coefficient", "tabulated"]
    ))
    p = draw(st.sampled_from([1.25, 1.5, 2.0, 3.0, 4.0]))
    if kind == "power-law":
        return HamiltonianSpec(kind=kind, p=p)
    if kind == "scaled-power-law":
        return HamiltonianSpec(kind=kind, p=p,
                               coefficient=draw(st.floats(0.25, 4.0)),
                               offset=draw(st.floats(-2.0, 2.0)))
    if kind == "rough-coefficient":
        return HamiltonianSpec(kind=kind, p=p, lam=draw(st.floats(1.0, 4.0)),
                               eta=draw(st.floats(0.05, 0.6)))
    bins = draw(st.integers(1, 3))
    per_axis = draw(st.integers(1, 3))
    edges = sorted(draw(st.lists(st.floats(-0.05, 0.1), min_size=bins + 1,
                                 max_size=bins + 1, unique=True)))
    values = draw(st.lists(st.floats(0.25, 4.0), min_size=bins * per_axis**dim,
                           max_size=bins * per_axis**dim))
    table = TabulatedCoefficient(dimension=dim, t_edges=tuple(edges),
                                 half_width=draw(st.floats(0.5, 1.5)),
                                 cells_per_axis=per_axis, values=tuple(values))
    return HamiltonianSpec(kind=kind, p=p, table=table)


def transforms(dim, most):
    """Zero to ``most`` affine reparametrizations, innermost first, as the
    keyword arguments of ``TransformedHamiltonian``."""
    one = st.fixed_dictionaries({
        "out_scale": st.floats(0.25, 2.0),
        "t_scale": st.floats(0.25, 4.0),
        "x_scale": st.floats(0.25, 2.0),
        "grad_scale": st.floats(0.25, 2.0),
        "t_shift": st.floats(-0.05, 0.05),
        "x_shift": st.one_of(st.just(()), st.tuples(*[st.floats(-0.5, 0.5)] * dim)),
        "const": st.floats(-1.0, 1.0),
    })
    return st.lists(one, max_size=most)


def _wrap(h, chain):
    for params in chain:
        h = TransformedHamiltonian(base=h, **params)
    return h


@st.composite
def hamiltonians(draw, dim):
    """A catalog Hamiltonian under zero to two affine reparametrizations."""
    return _wrap(draw(base_hamiltonians(dim)), draw(transforms(dim, 2)))


@st.composite
def problems(draw):
    """Grid, Hamiltonian, random initial data and a solve configuration.

    The time step is a random fraction of the CFL step planned from the
    initial steepness, so some draws abort on CFL, monotonicity or (in
    fixed mode) the dissipation bound, at step 0 or later.
    """
    dim = draw(st.sampled_from([1, 2, 3]))
    cells = draw(st.integers(4, _MAX_CELLS[dim]))
    h = draw(hamiltonians(dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (cells,) * dim
    init = draw(st.floats(0.0, 2.0)) * rng.uniform(-1.0, 1.0, shape)
    width = 2.0 / cells
    steep = max(
        (float(np.abs(np.diff(init, axis=a)).max()) for a in range(dim)),
        default=0.0,
    ) / width
    sigma = max(h.dissipation_bound(steep * math.sqrt(dim)), 1e-3)
    safety = draw(st.floats(0.25, 1.0))
    # a multiple of the largest stable step, safety * cell_width / (N * sigma)
    dt = draw(st.floats(0.05, 2.0)) * (
        safety * width / (dim * (sigma * SIGMA_INFLATION)))
    n_steps = draw(st.integers(1, 12))
    spec = GridSpec(dimension=dim, half_width=1.0, cells_per_axis=cells,
                    t_start=0.0, t_end=n_steps * dt, dt=dt)
    if draw(st.booleans()):
        cfg = SolveConfig(cfl_safety=safety)
    else:
        cfg = SolveConfig(cfl_safety=safety, sigma_mode="fixed",
                          sigma_bound=draw(st.floats(0.5, 3.0)) * sigma)
    return spec, h, init, cfg


@settings(max_examples=150, deadline=None)
@given(problems())
def test_solve_matches_reference(problem):
    spec, h, init, cfg = problem

    def kernel():
        traj = solve(spec, h, init, cfg)
        return traj.field.values, traj.cfl_margins, traj.max_updates

    _assert_same_outcome(_outcome(kernel),
                         _outcome(lambda: _reference_solve(spec, h, init, cfg)))


@settings(max_examples=100, deadline=None)
@given(problems(), st.integers(2, 3))
def test_batch_members_match_reference(problem, members):
    """Two or three members marched as one batch: each member's slices,
    margins and updates have the bytes of its reference solve, and an
    abort is the earliest aborting member's."""
    spec, h, init, cfg = problem
    inits = [init, -init, 0.5 * np.flip(init)][:members]
    wants = [_outcome(lambda d=d: _reference_solve(spec, h, d, cfg)) for d in inits]

    def batch():
        traj = solve(spec, h, inits, cfg)
        return [(m.field.values, m.cfl_margins, m.max_updates)
                for m in map(traj.member, range(members))]

    got = _outcome(batch)
    aborts = [want[1:] for want in wants if want[0] == "abort"]
    if aborts:
        assert got[0] == "abort"
        assert got[1:] in aborts and got[2] == min(step for _, step in aborts)
        return
    assert got[0] == "ok"
    for member, want in zip(got[1], wants):
        _assert_same_outcome(("ok", member), want)


@settings(max_examples=100, deadline=None)
@given(problems(), st.data())
def test_kept_and_scanned_slices_match_reference(problem, data):
    """A solve that keeps some slices marches the others through its two
    scratch blocks: its kept slices, and every slice a scan records, have
    the bytes of the reference trajectory's."""
    spec, h, init, cfg = problem
    n = spec.n_slices
    bounds = st.tuples(st.integers(0, n), st.integers(0, n))
    keep = data.draw(st.lists(bounds.map(lambda b: range(min(b), max(b))), max_size=3))
    recorded = []

    def record(i, values):
        recorded.append((i, values.copy()))

    got = _outcome(lambda: solve(spec, h, init, cfg, keep, record))
    want = _outcome(lambda: _reference_solve(spec, h, init, cfg))
    assert got[0] == want[0]
    if want[0] == "abort":
        assert got[1:] == want[1:]
        return
    traj, (values, margins, updates) = got[1], want[1]
    kept = sorted({i for r in keep for i in r})
    assert [i for i, _ in recorded] == list(range(n))
    assert _same(np.array([v for _, v in recorded]), values)
    assert (traj.field.kept is None) == (len(kept) == n)
    if traj.field.kept is not None:
        assert traj.field.kept.tolist() == kept
    assert _same(traj.field.values, values[kept])
    assert _same(traj.cfl_margins, margins) and _same(traj.max_updates, updates)


@settings(max_examples=150, deadline=None)
@given(problems(), st.integers(0, 2**32 - 1), st.data())
def test_step_matches_reference(problem, seed, data):
    spec, h, init, cfg = problem
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, 1.0, (spec.n_slices, *spec.spatial_shape))
    values *= float(np.abs(init).max())
    f = field_from_values(spec, values)
    i = data.draw(st.integers(0, spec.n_steps - 1))
    t = float(spec.times()[i])
    got = _outcome(lambda: (kernel_step(f, h, i, cfg),))
    want = _outcome(lambda: (_reference_step(
        f.values[i], spec, h, t, cfg, spec.centers(), i)[0],))
    _assert_same_outcome(got, want)


def _reference_eval(h, t, x, grad):
    """The flat power form, by hand: ``A(t, x) (sum_i P_i^2)^(p/2) + B``."""
    a, b = _flat_form(h, t, x)
    return _power_form(a, b, h.p, grad)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2, 3]).flatmap(
    lambda dim: st.tuples(st.just(dim), hamiltonians(dim))),
    st.integers(0, 2**32 - 1))
def test_eval_matches_the_norm_formula(dim_h, seed):
    """``eval`` with and without ``out`` against the power form written out
    by hand, bytes and all, on grids and on a broadcast cloud of points and
    gradients."""
    dim, h = dim_h
    rng = np.random.default_rng(seed)
    spec = GridSpec(dimension=dim, half_width=1.0, cells_per_axis=6,
                    t_start=0.0, t_end=0.1, dt=0.05)
    x = spec.centers()
    grad = rng.uniform(-3.0, 3.0, x.shape) * 10.0 ** rng.uniform(-3.0, 3.0, x.shape)
    grad[rng.random(x.shape) < 0.2] = 0.0
    want = _reference_eval(h, 0.05, x, grad)
    kept = grad.copy()
    assert _same(h.eval(0.05, x, kept), want)
    assert _same(kept, grad)
    scratch = np.moveaxis(np.moveaxis(grad, -1, 0).copy(), 0, -1)
    out = np.empty(spec.spatial_shape)
    assert h.eval(0.05, x, scratch, h.coefficient_field(0.05, x), out=out) is out
    assert _same(out, want)
    points, grads = x.reshape(-1, dim)[:5, None, :], grad.reshape(-1, dim)[None, :7, :]
    assert _same(h.eval(0.05, points, grads), _reference_eval(h, 0.05, points, grads))


def _nested_eval(base, chain, t, x, grad):
    """The evaluation before transforms composed: each reparametrization,
    outermost first, is ``out_scale * (inner(...) + const)`` on a scaled
    copy of the gradient, and the catalog value is ``a |P|^p + offset`` with
    ``|P|`` from ``np.linalg.norm``."""
    if not chain:
        pnorm = np.linalg.norm(grad, axis=-1)
        return base.coefficient_field(t, x) * pnorm**base.p + base.offset
    *inner, outer = chain
    shift = np.asarray(outer["x_shift"]) if outer["x_shift"] else 0.0
    value = _nested_eval(base, inner, outer["t_shift"] + outer["t_scale"] * t,
                         shift + outer["x_scale"] * x, outer["grad_scale"] * grad)
    return outer["out_scale"] * (value + outer["const"])


def _nested_dissipation_bound(base, chain, pnorm):
    """The dissipation bound before transforms composed."""
    if not chain:
        return base.sup_coefficient * base.p * max(pnorm, 0.0) ** (base.p - 1.0)
    *inner, outer = chain
    scale = abs(outer["grad_scale"])
    return abs(outer["out_scale"]) * scale * _nested_dissipation_bound(
        base, inner, scale * pnorm)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2, 3]).flatmap(lambda dim: st.tuples(
    st.just(dim), base_hamiltonians(dim), transforms(dim, 3))),
    st.integers(0, 2**32 - 1))
def test_composed_transforms_match_the_nested_evaluation(drawn, seed):
    """A chain of up to three transforms builds with a catalog base, and its
    flat power form agrees with the nested evaluation to 1e-12 relative to
    the size of the terms summed (the same nesting on absolute values).
    Points and times are drawn at random, so no point sits on a coefficient
    cell edge that the two roundings of the map could put on either side."""
    dim, base, chain = drawn
    h = _wrap(base, chain)
    assert isinstance(h if not chain else h.base, HamiltonianSpec)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.5, 1.5, (40, dim))
    grad = rng.uniform(-3.0, 3.0, x.shape) * 10.0 ** rng.uniform(-2.0, 2.0, x.shape)
    t = float(rng.uniform(-0.05, 0.1))
    want = _nested_eval(base, chain, t, x, grad)
    size = _nested_eval(replace(base, offset=abs(base.offset)),
                        [{**c, "const": abs(c["const"])} for c in chain],
                        t, x, grad)
    got = h.eval(t, x, grad)
    assert np.all(np.abs(got - want) <= 1e-12 * size)
    for pnorm in (0.0, 0.3, float(np.abs(grad).max())):
        assert h.dissipation_bound(pnorm) == pytest.approx(
            _nested_dissipation_bound(base, chain, pnorm), rel=1e-12)


def test_step_refuses_a_slice_it_cannot_ravel_in_place():
    spec = GridSpec(dimension=2, half_width=1.0, cells_per_axis=8,
                    t_start=0.0, t_end=0.01, dt=0.001)
    kernel = _StepKernel(spec, _QUADRATIC, SolveConfig())
    u = np.zeros(spec.spatial_shape)
    with pytest.raises(ValueError, match="C-contiguous"):
        kernel(u, 0.0, 0, np.empty((8, 16))[:, ::2])
    with pytest.raises(ValueError, match="C-contiguous"):
        kernel(np.zeros((8, 16))[:, ::2], 0.0, 0, u)


_LINE = GridSpec(dimension=1, half_width=2.0, cells_per_axis=64,
                 t_start=0.0, t_end=0.5, dt=0.5 / 112.0)
_QUADRATIC = HamiltonianSpec(kind="power-law", p=2.0)
_CONE = 4.0 * np.abs(_LINE.axis_centers())
_NAN_START = np.where(np.arange(64) == 0, np.nan, 0.0)
# Its constant 1e308 * 1e308 overflows, and its coefficient 1e308 times the
# lattice scale (0.5/h)^2 too, while the dissipation stays 0.
_OVERFLOW = TransformedHamiltonian(
    base=HamiltonianSpec(kind="power-law", p=2.0), out_scale=1e308, const=1e308
)
# On flat data the update is -dt * offset, here about 4.5e305 a step: finite,
# but it carries a slice near 1.7e308 past the float maximum at step 21.
_CLIMB = HamiltonianSpec(kind="scaled-power-law", p=2.0, offset=-1e308)
_NAN_H = TransformedHamiltonian(base=_QUADRATIC, const=float("nan"))

ABORTS = [
    ("initial data contains non-finite values", 0,
     _LINE, _QUADRATIC, _NAN_START, SolveConfig()),
    ("exceeding max_steps=3", 0,
     _LINE, _QUADRATIC, np.zeros(64), SolveConfig(max_steps=3)),
    ("fixed dissipation bound", 0,
     _LINE, _QUADRATIC, _CONE, SolveConfig(sigma_mode="fixed", sigma_bound=0.5)),
    ("breaks monotonicity", 0,
     GridSpec(dimension=1, half_width=2.0, cells_per_axis=64,
              t_start=0.0, t_end=0.5, dt=0.5 / 32.0),
     _QUADRATIC, _CONE, SolveConfig()),
    ("CFL violation", 0, _LINE, _QUADRATIC, _CONE, SolveConfig()),
    ("step 0: non-finite values produced", 0,
     _LINE, _OVERFLOW, np.zeros(64), SolveConfig()),
    ("step 21: non-finite values produced", 21,
     _LINE, _CLIMB, np.full(64, 1.7e308), SolveConfig()),
    # (a shorter pattern than the overflow's above, for a distinct test id)
    ("step 0: non-finite values", 0, _LINE, _NAN_H, np.zeros(64), SolveConfig()),
    # a steepening rough-coefficient front crosses the fixed bound late
    ("step 2: sampled", 2,
     GridSpec(dimension=1, half_width=1.0, cells_per_axis=32,
              t_start=0.0, t_end=0.05, dt=0.001),
     HamiltonianSpec(kind="rough-coefficient", p=2.0, lam=3.0, eta=0.1),
     np.cos(2.0 * np.linspace(-1.0, 1.0, 32)),
     SolveConfig(sigma_mode="fixed", sigma_bound=14.0)),
]


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("match,index,spec,h,init,cfg", ABORTS,
                         ids=[a[0] for a in ABORTS])
def test_abort_paths_keep_message_and_step(match, index, spec, h, init, cfg):
    # the overflow case's reference step makes its NaN as inf * 0, and warns
    warned = (pytest.warns(RuntimeWarning, match="invalid value encountered in multiply")
              if h is _OVERFLOW else contextlib.nullcontext())
    with warned:
        want = _outcome(lambda: _reference_solve(spec, h, init, cfg))
    assert want[0] == "abort" and want[2] == index
    with pytest.raises(SolverError, match=match) as exc:
        solve(spec, h, init, cfg)
    assert (str(exc.value), exc.value.step_index) == want[1:]


def test_step_buffers_start_on_page_boundaries():
    """The step's work buffers sit on 4,096-byte boundaries, wherever the
    heap stands when the solve starts."""
    spec = GridSpec(dimension=2, half_width=1.5, cells_per_axis=24,
                    t_start=0.0, t_end=0.1, dt=0.001)
    for filler in (1, 100, 1000):
        held = np.zeros(filler)
        kernel = _StepKernel(spec, _QUADRATIC, SolveConfig())
        stride, (head, edges, fwd, prev, central) = kernel.axes[0]
        for buf in (kernel.jump, kernel.pnorm_sq, kernel.work, prev, central):
            assert buf.ctypes.data % 4096 == 0
        assert not prev[:stride].any()
        del held


@pytest.mark.filterwarnings("error")
def test_a_coefficient_past_the_lattice_scale_keeps_zero_data_at_zero():
    """``A (0.5/h)^p`` overflows here (1e307 * 32^2), and a zero gradient
    would make it ``0 * inf = NaN``: the step scales the centered sums by
    ``0.5/h`` instead, and zero data stay zero."""
    spec = GridSpec(dimension=1, half_width=1.0, cells_per_axis=64,
                    t_start=0.0, t_end=0.01, dt=0.001)
    h = HamiltonianSpec(kind="scaled-power-law", p=2.0, coefficient=1e307)
    assert math.isinf(h.coefficient * (0.5 / spec.cell_width) ** h.p)
    traj = solve(spec, h, np.zeros(64))
    assert spec.n_steps == 10
    assert traj.field.values.tobytes() == np.zeros((11, 64)).tobytes()
    assert traj.max_updates.tolist() == [0.0] * 10


class _CountingNumpy:
    """numpy with every name fetched through it counted, and each method
    fetched from a ufunc as ``name.method``: ``np.maximum.reduce`` counts
    under ``maximum`` and ``maximum.reduce``."""

    def __init__(self):
        self.calls = Counter()

    def __getattr__(self, name):
        self.calls[name] += 1
        value = getattr(np, name)
        return _CountedUfunc(value, name, self.calls) if isinstance(value, np.ufunc) else value


class _CountedUfunc:
    def __init__(self, ufunc, name, calls):
        self.ufunc, self.name, self.calls = ufunc, name, calls

    def __call__(self, *args, **kwargs):
        return self.ufunc(*args, **kwargs)

    def __getattr__(self, method):
        self.calls[f"{self.name}.{method}"] += 1
        return getattr(self.ufunc, method)


@pytest.mark.parametrize("h,init,passes", [
    # |u| stays far below the float maximum: the initial data's check only
    (_QUADRATIC, 0.1 * _CONE, 1),
    # the bound starts above the constant: the full check on every step
    (HamiltonianSpec(kind="scaled-power-law", p=2.0, offset=-1e303),
     np.full(64, 1e305), 1 + _LINE.n_steps),
], ids=["small", "huge"])
def test_finiteness_pass_runs_only_when_an_overflow_is_possible(
    monkeypatch, h, init, passes
):
    counting = _CountingNumpy()
    monkeypatch.setattr(solver, "np", counting)
    cfg = SolveConfig(cfl_safety=0.9)
    traj = solve(_LINE, h, init, cfg)
    assert counting.calls["isfinite"] == passes
    want = _reference_solve(_LINE, h, init, cfg)
    for got, ref in zip((traj.field.values, traj.cfl_margins, traj.max_updates),
                        want):
        assert _same(got, ref)


# numpy calls of one lone step: five on the first axis, seven on each
# other, five to build the update; a later change that adds one fails here
_STEP_CALLS = {1: 10, 2: 17}


@pytest.mark.parametrize("dim", [1, 2])
def test_a_lone_step_makes_a_pinned_number_of_numpy_calls(monkeypatch, dim):
    """A step on a fresh block and a step on the block the last one wrote
    each make ``_STEP_CALLS[dim]`` calls through ``solver.np``, none of
    them a full ``maximum.reduce``, and have the reference's bytes."""
    spec = GridSpec(dimension=dim, half_width=1.0, cells_per_axis=16,
                    t_start=0.0, t_end=0.01, dt=0.001)
    cfg = SolveConfig()
    kernel = _StepKernel(spec, _QUADRATIC, cfg)
    blocks = [0.3 * np.sin(2.0 * spec.centers()[..., 0]),
              np.empty(spec.spatial_shape), np.empty(spec.spatial_shape)]
    counting = _CountingNumpy()
    monkeypatch.setattr(solver, "np", counting)
    for i in range(2):
        counting.calls.clear()
        kernel(blocks[i], 0.001 * i, i, blocks[i + 1])
        assert sum(counting.calls.values()) == _STEP_CALLS[dim], counting.calls
        assert "maximum.reduce" not in counting.calls
        want = _reference_step(blocks[i], spec, _QUADRATIC, 0.001 * i, cfg,
                               spec.centers(), i)[0]
        assert _same(blocks[i + 1], want)


def test_step_abort_carries_the_slice_index():
    values = np.tile(_CONE, (_LINE.n_slices, 1))
    f = field_from_values(_LINE, values)
    with pytest.raises(SolverError, match="step 5: CFL violation") as exc:
        kernel_step(f, _QUADRATIC, 5, SolveConfig())
    assert exc.value.step_index == 5


def test_static_coefficient_is_built_once(monkeypatch):
    h = TransformedHamiltonian(
        base=HamiltonianSpec(kind="rough-coefficient", p=1.5, lam=2.0, eta=0.2),
        x_shift=(0.1, -0.2), x_scale=0.5,
    )
    calls = []
    original = HamiltonianSpec.coefficient_field

    def counted(self, t, x):
        calls.append(t)
        return original(self, t, x)

    monkeypatch.setattr(HamiltonianSpec, "coefficient_field", counted)
    spec = GridSpec(dimension=2, half_width=1.0, cells_per_axis=8,
                    t_start=0.0, t_end=0.05, dt=0.005)
    solve(spec, h, lambda x: np.sin(x[..., 0]))
    assert len(calls) == 1


def test_tabulated_coefficient_is_looked_up_every_step(monkeypatch):
    table = TabulatedCoefficient(dimension=1, t_edges=(0.0, 0.02, 0.05),
                                 half_width=1.0, cells_per_axis=2,
                                 values=(1.0, 2.0, 3.0, 4.0))
    h = HamiltonianSpec(kind="tabulated", p=1.5, table=table)
    times = []
    original = TabulatedCoefficient.lookup

    def counted(self, t, x):
        times.append(t)
        return original(self, t, x)

    monkeypatch.setattr(TabulatedCoefficient, "lookup", counted)
    spec = GridSpec(dimension=1, half_width=1.0, cells_per_axis=8,
                    t_start=0.0, t_end=0.05, dt=0.005)
    solve(spec, h, lambda x: np.sin(x[..., 0]))
    np.testing.assert_array_equal(times, spec.times()[:-1])
