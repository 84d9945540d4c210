"""Shared lattices, envelopes, and chains used across the test modules."""

import json
from importlib import resources

import numpy as np
import pytest

from hjreg.grid import GridSpec
from hjreg.hamiltonians import CoercivityEnvelope
from hjreg.oscillation import build_constant_chain

from reference import make_field


@pytest.fixture(scope="session")
def box2():
    """Standard 2-D working lattice: [-2, 2] x box(1.25), 20 cells, dt 0.025."""
    return GridSpec(
        dimension=2,
        half_width=1.25,
        cells_per_axis=20,
        t_start=-2.0,
        t_end=2.0,
        dt=0.025,
    )


@pytest.fixture(scope="session")
def env_unit():
    return CoercivityEnvelope(lam=1.0, p=1.5)


@pytest.fixture(scope="session")
def env_double():
    return CoercivityEnvelope(lam=2.0, p=1.5)


@pytest.fixture(scope="session")
def chain_unit():
    return build_constant_chain(2, 1.5, 1.0, 1.0)


@pytest.fixture(scope="session")
def chain_double():
    return build_constant_chain(2, 1.5, 2.0, 1.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def const_field(spec, value):
    return make_field(spec, lambda t, x: float(value))


def coordinate_field(spec, axis=0):
    return make_field(spec, lambda t, x: x[..., axis])


def time_field(spec):
    return make_field(spec, lambda t, x: t)


def noise_field(spec, rng, scale=1.0):
    values = scale * rng.standard_normal((spec.n_slices, *spec.spatial_shape))
    from hjreg.grid import field_from_values

    return field_from_values(spec, values)


def residual_reports(f, env, terms, ball=None):
    """The report of each of ``terms`` (a repeated term once) from one
    ``ResidualRows`` pass over every slice of ``f`` with ``env``'s
    exponent, as a run takes them from the march."""
    from hjreg.grid import SliceScan
    from hjreg.solver import ResidualRows

    unique = list(dict.fromkeys(terms))
    rows = ResidualRows(f.spec, env.p, unique, ball)
    SliceScan(f.spec, [rows]).read(f)
    return dict(zip(unique, rows.reports()))


def check_residuals(f, env, terms):
    """The residual reports a lemma or oscillation check reads: ``terms``
    from one pass over ``f`` with the ball of ``[-2, 2] x B(1)`` as the
    mask, as a run computes them."""
    from hjreg.degiorgi import UNIT_CYLINDER
    from hjreg.grid import Window

    return residual_reports(f, env, terms, Window(f.spec, UNIT_CYLINDER).mask)


def tables_of(f, reads):
    """The ``SliceTables`` of ``reads`` over every slice of ``f``, as a run
    takes them from the march."""
    from hjreg.grid import SliceTables

    return SliceTables.of(f, reads)


def gauge_scan(spec, env, members=1):
    """``(scan, tables, rows)``: the gauge's tables and residual rows on
    ``spec`` at ``env``, which ``scan`` fills, as a run's march does."""
    from hjreg.grid import SliceScan, SliceTables
    from hjreg.rescale import GAUGE_READS, gauge_term
    from hjreg.solver import ResidualRows

    tables = SliceTables(spec, GAUGE_READS, members)
    rows = ResidualRows(spec, env.p, [gauge_term(spec, env)], members=members)
    return SliceScan(spec, [tables, rows], members), tables, rows


def bundled_config(name):
    """The JSON object of the bundled scenario ``name``."""
    path = resources.files("hjreg") / "scenarios" / f"{name}.json"
    return json.loads(path.read_text())
