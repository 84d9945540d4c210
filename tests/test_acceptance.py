"""Acceptance gate: one test per release criterion, one printed verdict each.

Each test exercises its criterion end to end at the stated tolerance and
prints a single ``criterion NN: PASS/FAIL`` line carrying the measured
numbers, so the suite log doubles as the acceptance record.
"""

import json
import math
import time

import numpy as np
import pytest

from hjreg.cli import main
from hjreg.degiorgi import (
    delta_constant,
    fast_convergence_threshold,
    lemma_one_check,
    lemma_one_reads,
    recurrence_orbit,
)
from hjreg.experiment import (
    ExperimentConfig,
    TheoremSettings,
    ensemble,
    parse_config,
    run,
)
from hjreg.grid import GridSpec, SliceScan, SliceTables
from hjreg.hamiltonians import CoercivityEnvelope, HamiltonianSpec
from hjreg.initial_data import make_initial_function
from hjreg.oscillation import (
    barrier_field,
    build_constant_chain,
    comparison_check,
    validate_chain,
)
from hjreg.rescale import (
    base_point_window,
    gauge_to_window,
    holder_estimate,
    theorem_check,
    zoom_cascade,
)
from hjreg.solver import (
    SolveConfig,
    hopf_lax,
    residual_supersolution,
    snap_dt,
    solve,
)

import reference
from test_rescale import synthetic_records


def _verdict(number, ok, detail, elapsed, budget):
    ok = bool(ok) and elapsed <= budget
    line = (f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} "
            f"({detail}; {elapsed:.1f}s of {budget:.0f}s)")
    print(line)
    assert ok, line


def test_criterion_01_inf_convolution_oracle_convergence():
    begin = time.time()
    hamiltonian = HamiltonianSpec(kind="power-law", p=2.0)

    def cone(pts):
        return np.linalg.norm(pts, axis=-1)

    errors = []
    for cells in (256, 512, 1024):
        spec = GridSpec(
            dimension=1, half_width=2.0, cells_per_axis=cells,
            t_start=0.0, t_end=1.0,
            dt=snap_dt(0.0, 1.0, (4.0 / cells) / 6.0),
        )
        traj = solve(spec, hamiltonian, cone)
        centers = spec.centers()
        inner = np.abs(centers[:, 0]) <= 1.0
        got = traj.field.values[-1][inner]
        want = np.array([hopf_lax(cone, 1.0, pt, 2.0)
                         for pt in centers[inner]])
        errors.append(float(np.abs(got - want).max()))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    ok = (
        errors[0] > errors[1] > errors[2]
        and min(orders) >= 0.4
        and errors[-1] <= 0.02
    )
    _verdict(
        1, ok,
        "sup errors " + "/".join(f"{e:.4f}" for e in errors)
        + ", orders " + "/".join(f"{o:.2f}" for o in orders),
        time.time() - begin, 60.0,
    )


def test_criterion_02_discrete_comparison_ordering():
    begin = time.time()
    spec = GridSpec(dimension=2, half_width=1.0, cells_per_axis=16,
                    t_start=0.0, t_end=0.25, dt=0.003125)
    hamiltonian = HamiltonianSpec(kind="power-law", p=1.5)
    cfg = SolveConfig(sigma_mode="fixed", sigma_bound=8.0)
    worst = 0.0
    scale = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        waves = rng.integers(1, 4, size=(4, 2))
        coeff = 0.2 * rng.standard_normal(4)
        phase = rng.uniform(0.0, 2.0 * np.pi, 4)
        bump = 0.1 + 0.2 * abs(rng.standard_normal())

        def lower(pts, waves=waves, coeff=coeff, phase=phase):
            out = np.zeros(pts.shape[:-1])
            for c, k, ph in zip(coeff, waves, phase):
                out = out + c * np.cos(pts @ (np.pi * k) + ph)
            return out

        lo = solve(spec, hamiltonian, lower, cfg)
        hi = solve(spec, hamiltonian,
                   lambda pts: lower(pts) + bump, cfg)
        gap = hi.field.values - lo.field.values
        worst = min(worst, float(gap.min()))
        scale = max(scale, float(np.abs(hi.field.values).max()),
                    float(np.abs(lo.field.values).max()))
    tol = 1e-12 + 2.0 * np.finfo(float).eps * scale
    _verdict(
        2, worst >= -tol,
        f"50 ordered pairs, worst gap {worst:.2e} against -{tol:.2e}",
        time.time() - begin, 300.0,
    )


def test_criterion_03_constant_chain_frozen_values():
    begin = time.time()
    chain = build_constant_chain(2, 1.5, 1.0, 1.0)
    checks = validate_chain(chain)
    ok = (
        chain.ladder_depth == 13
        and chain.shrink_above == 2.0**-14
        and len(checks) == 9
        and all(c.ok and c.slack >= 0.0 for c in checks.values())
        and 0.0 < chain.holder_exponent < 1.0
    )
    _verdict(
        3, ok,
        f"depth={chain.ladder_depth}, shrink=2^-14 exact, "
        f"{len(checks)} invariants ok, "
        f"exponent={chain.holder_exponent:.3e}",
        time.time() - begin, 1.0,
    )


def test_criterion_04_recurrence_collapse():
    begin = time.time()
    slowest = 0
    for d in (1.0, 10.0, 100.0):
        for beta in (0.25, 0.75, 2.0):
            a0 = fast_convergence_threshold(d, beta)
            orbit = recurrence_orbit(d, beta, a0, 40)
            below = [k for k, v in enumerate(orbit) if v < 1e-12]
            assert below, f"d={d} beta={beta} never fell below 1e-12"
            slowest = max(slowest, below[0])
    _verdict(
        4, slowest <= 40,
        f"9 (D, beta) cells collapse below 1e-12, slowest at step {slowest}",
        time.time() - begin, 1.0,
    )


def test_criterion_05_small_mass_implies_capped_sup():
    begin = time.time()
    spec = GridSpec(dimension=2, half_width=1.25, cells_per_axis=20,
                    t_start=0.0, t_end=2.0, dt=0.025)
    hamiltonian = HamiltonianSpec(kind="power-law", p=1.5)
    env = CoercivityEnvelope(lam=1.0, p=1.5)
    delta = delta_constant(
        fast_convergence_threshold(10.0, env.p / spec.dimension), env.lam
    )
    statuses = []
    max_mass = 0.0
    for seed in range(20):
        amplitude = 0.05
        verdict = None
        for _ in range(6):
            fn = make_initial_function(
                spec, "random-trig",
                {"amplitude": amplitude, "bandwidth": 2, "n_modes": 6},
                seed=seed,
            )
            # the check reads the march as it runs, as a run's does
            tables = SliceTables(spec, lemma_one_reads())
            solve(spec, hamiltonian, fn, keep=[], scan=SliceScan(spec, [tables]))
            verdict = lemma_one_check(tables, env, delta)
            mass = verdict.hypothesis_values["plus_mass"]
            if mass <= delta:
                break
            amplitude *= min(0.5, delta / (2.0 * mass))
        statuses.append(verdict.status)
        max_mass = max(max_mass, mass)
        assert verdict.hypothesis_satisfied, f"seed {seed} mass {mass}"
    refuted = statuses.count("refuted")
    ok = refuted == 0 and all(s == "pass" for s in statuses)
    _verdict(
        5, ok,
        f"20 bisected runs, max mass {max_mass:.4f} <= delta {delta:.4f}, "
        f"{refuted} refutations",
        time.time() - begin, 600.0,
    )


def test_criterion_06_barrier_supersolution_and_margin():
    begin = time.time()
    spec = GridSpec(dimension=2, half_width=1.25, cells_per_axis=20,
                    t_start=-2.0, t_end=2.0, dt=0.025)
    chain = build_constant_chain(2, 1.5, 1.0, 1.0)
    env = CoercivityEnvelope(lam=1.0, p=1.5)
    psi = barrier_field(chain, spec)
    h = spec.cell_width

    report = residual_supersolution(psi, env,
                                    a_coef=chain.supersolution_coefficient)
    # the kink mask changes from slice to slice: read the whole-field residual
    full = reference.residual(psi, env.p, chain.supersolution_coefficient, 0.0)
    assert np.array_equal(report.values, reference.table(full))
    radii = np.linalg.norm(spec.centers(), axis=-1)
    times = spec.times()
    rate = chain.barrier_height / 8.0
    off_kink = 0.0
    for i in range(full.shape[0]):
        keep = radii > 3.0 * h
        for t in (times[i], times[i + 1]):
            ring = 1.0 - (chain.barrier_height + rate * (t + 2.0)) \
                / chain.barrier_slope
            keep &= np.abs(radii - ring) > 3.0 * h
        off_kink = max(off_kink, float(np.abs(full[i][keep]).max()))

    traj = solve(
        spec,
        HamiltonianSpec(kind="scaled-power-law", p=1.5,
                        coefficient=chain.supersolution_coefficient),
        psi.values[0],
    )
    margin = comparison_check(traj.field, chain).min_margin
    ok = off_kink <= 5.0 * h and margin >= -5.0 * h
    _verdict(
        6, ok,
        f"off-kink residual {off_kink:.2e} <= {5 * h:.3f}, "
        f"solve margin {margin:.2e} >= {-5 * h:.3f}",
        time.time() - begin, 120.0,
    )


def _oscillation_config(check, offset):
    return ExperimentConfig.from_json_dict({
        "scenario": f"acceptance-{check.replace('_', '-')}",
        "grid": {"dimension": 2, "half_width": 1.25, "cells_per_axis": 20,
                 "t_start": -2.0, "t_end": 2.0, "dt": 0.025},
        "hamiltonian": {"kind": "power-law", "p": 1.5},
        "checks": [check],
        "initial_data": {
            "name": "random-trig",
            "parameters": {"amplitude": 0.01, "offset": offset,
                           "bandwidth": 2, "n_modes": 6},
        },
    })


def test_criterion_07_one_sided_oscillation_ensembles(tmp_path):
    begin = time.time()
    above = ensemble(_oscillation_config("osc_above", -0.05), 20, 101,
                     out_dir=tmp_path)
    below = ensemble(_oscillation_config("osc_below", 0.05), 20, 202,
                     out_dir=tmp_path)
    ok = all(
        rep.counts["refuted"] == 0
        and rep.counts["error"] == 0
        and rep.counts["pass"] + rep.counts["vacuous"] == 20
        and rep.counts["pass"] > 0
        for rep in (above, below)
    )
    _verdict(
        7, ok,
        f"above: {above.counts['pass']} pass / {above.counts['vacuous']} "
        f"vacuous, below: {below.counts['pass']} pass / "
        f"{below.counts['vacuous']} vacuous, 0 refuted",
        time.time() - begin, 900.0,
    )


def test_criterion_08_zoom_cascade_on_kink_data():
    begin = time.time()
    spec = GridSpec(dimension=2, half_width=1.25, cells_per_axis=24,
                    t_start=0.0, t_end=1.0, dt=0.002)
    hamiltonian = HamiltonianSpec(kind="power-law", p=1.5)
    env = hamiltonian.declared_envelope()
    chain = build_constant_chain(2, 1.5, 2.0 * env.lam, 1.0)
    fn = make_initial_function(spec, "sine-product", {"amplitude": 0.5})
    traj = solve(spec, hamiltonian, fn)

    # one explicit six-zoom run with re-solving at every level
    field, _, gamma = gauge_to_window(traj.field, env)
    working = GridSpec(dimension=2, half_width=1.25, cells_per_axis=40,
                       t_start=-4.0, t_end=0.0, dt=0.0625)
    w, h_w, _, _ = base_point_window(field, chain, 1.0, (0.0, 0.0), gamma,
                                     working, hamiltonian)
    records, _ = zoom_cascade(w, chain, 6, h_w)
    cascade_ok = len(records) == 7 and all(r.satisfied for r in records)

    # the base-point scan at the same depth
    report = theorem_check(traj.field, 0.5, chain, env, hamiltonian,
                           TheoremSettings(points_per_axis=2, levels=6))
    scan_ok = report.n_unsatisfied == 0 and all(
        e["n_unsatisfied"] == 0
        and (e["alpha_est"] is None or e["alpha_est"] >= 0.5)
        for e in report.entries
    )

    # the fitter itself, on records with known exponents
    fit_ok = all(
        abs(holder_estimate(synthetic_records(expo, chain), chain).alpha_est
            - expo) <= 1e-6
        for expo in (0.5, 1.0)
    )
    alpha_min = report.alpha_min
    _verdict(
        8, cascade_ok and scan_ok and fit_ok,
        f"7/7 records satisfied, {len(report.entries)} base points with "
        f"alpha_min {alpha_min:.3f} >= 0.5, synthetic fit within 1e-6",
        time.time() - begin, 1200.0,
    )


def test_criterion_09_roughness_independent_regularity(tmp_path):
    begin = time.time()
    report = run(parse_config("rough-eta-sweep"), out_dir=tmp_path)
    violations = []
    alphas = []
    for entry in report.checks:
        if entry["check"].startswith("coercivity"):
            violations.extend(entry["violations"])
        if entry["check"].startswith("theorem"):
            assert entry["status"] == "pass", entry["check"]
            alphas.append(entry["alpha_min"])
    ratio = max(alphas) / min(alphas)
    ok = (
        report.status == "pass"
        and len(alphas) == 3
        and not violations
        and ratio < 2.0
    )
    _verdict(
        9, ok,
        "alpha_min " + "/".join(f"{a:.3f}" for a in alphas)
        + f", ratio {ratio:.3f} < 2, 0 coercivity violations",
        time.time() - begin, 1200.0,
    )


def test_criterion_10_determinism_and_exit_codes(tmp_path):
    begin = time.time()
    data = {
        "scenario": "acceptance-determinism",
        "grid": {"dimension": 2, "half_width": 1.25, "cells_per_axis": 8,
                 "t_start": 0.0, "t_end": 0.25, "dt": 0.03125},
        "hamiltonian": {"kind": "power-law", "p": 1.5},
        "initial_data": {"name": "random-trig",
                         "parameters": {"amplitude": 0.05}},
    }
    cfg = ExperimentConfig.from_json_dict(data)
    first = ensemble(cfg, 3, 42, out_dir=tmp_path / "a")
    second = ensemble(cfg, 3, 42, out_dir=tmp_path / "b")
    reports = []
    for side in ("a", "b"):
        path = (tmp_path / side / "acceptance-determinism-ensemble-seed42-n3"
                / "report.json")
        with open(path) as fh:
            body = json.load(fh)
        body.pop("timings")
        reports.append(json.dumps(body, sort_keys=True))
    deterministic = (reports[0] == reports[1]
                     and first.stable_bytes() == second.stable_bytes())

    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(data))
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps({**data, "surprise": 1}))
    codes = (
        main(["run", "--config", str(config_path), "--out",
              str(tmp_path / "c0")]),
        main(["run", "--config", "refuted-fixture", "--out",
              str(tmp_path / "c1")]),
        main(["run", "--config", str(bad_path)]),
        main(["run", "--config", "solver-abort-fixture", "--out",
              str(tmp_path / "c3")]),
    )
    ok = deterministic and codes == (0, 1, 2, 3)
    _verdict(
        10, ok,
        f"ensemble reports byte-identical minus timings, exit codes {codes}",
        time.time() - begin, 120.0,
    )
