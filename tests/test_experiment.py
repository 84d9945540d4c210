"""Scenario configs, run/ensemble reports, and the command-line interface."""

import contextlib
import io
import json
import math
import os
import re
import runpy
import subprocess
import sys
from dataclasses import MISSING, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hjreg
from hjreg import experiment, initial_data, rescale
from hjreg.cli import main
from hjreg.degiorgi import (
    UNIT_CYLINDER,
    LemmaVerdict,
    lemma_one_check,
    lemma_one_reads,
    lemma_two_check,
    lemma_two_reads,
)
from hjreg.experiment import (
    CHECK_NAMES,
    SCHEMA_VERSION,
    ChainSettings,
    ConfigError,
    EnsembleReport,
    ExperimentConfig,
    RunReport,
    bundled_scenarios,
    ensemble,
    parse_config,
    run,
)
from hjreg.grid import (
    GridSpec,
    SliceScan,
    SliceTables,
    Window,
    field_from_values,
    slice_blocks,
    to_json,
)
from hjreg.hamiltonians import CoercivityEnvelope
from hjreg.initial_data import make_initial_function
from hjreg.oscillation import (
    above_reads,
    below_reads,
    build_constant_chain,
    oscillation_above_check,
    oscillation_below_check,
)
from hjreg.rescale import (
    HolderEstimate,
    OscillationRecord,
    TheoremReport,
    holder_estimate,
)
from hjreg.solver import ResidualRows

import reference
from conftest import bundled_config, tables_of


GRID = {
    "dimension": 2,
    "half_width": 1.25,
    "cells_per_axis": 8,
    "t_start": 0.0,
    "t_end": 0.5,
    "dt": 0.125,
}
ROUGH = {"kind": "rough-coefficient", "p": 1.5, "lambda": 2.0, "eta": 0.25}


def tabulated(dimension=2, t_edges=(0.0, 1.0), half_width=1.25):
    """A ``tabulated`` Hamiltonian section with two cells per axis."""
    return {"kind": "tabulated", "p": 1.5,
            "table": {"dimension": dimension, "t_edges": list(t_edges),
                      "half_width": half_width, "cells_per_axis": 2,
                      "values": [1.0] * (len(t_edges) - 1) * 2**dimension}}


def minimal_dict(**overrides):
    data = {
        "scenario": "unit-test",
        "grid": dict(GRID),
        "hamiltonian": {"kind": "power-law", "p": 1.5},
    }
    data.update(overrides)
    return data


def checked_dict(**overrides):
    """A config whose grid satisfies every check's coverage window."""
    data = minimal_dict(
        grid={
            "dimension": 2,
            "half_width": 1.25,
            "cells_per_axis": 20,
            "t_start": -2.0,
            "t_end": 2.0,
            "dt": 0.05,
        },
    )
    data.update(overrides)
    return data


def strict_json(text):
    """``json.loads`` that rejects ``NaN``, ``Infinity`` and ``-Infinity``."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def output_tree(run_dir):
    """Every file under ``run_dir`` by relative path: bytes, or for a
    ``report.json`` the parsed report without ``timings``."""
    out = {}
    for path in sorted(run_dir.rglob("*")):
        if not path.is_file():
            continue
        if path.name == "report.json":
            report = json.loads(path.read_text())
            report.pop("timings", None)
            out[path.relative_to(run_dir).as_posix()] = report
        else:
            out[path.relative_to(run_dir).as_posix()] = path.read_bytes()
    return out


def count_solves(monkeypatch):
    """Route ``experiment.solve`` through a counter; returns its call list."""
    calls = []
    original = experiment.solve

    def solve(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiment, "solve", solve)
    return calls


def refuted_empirical_dict():
    """refuted-fixture in empirical chain mode: lemma1 does not read the
    chain, so every candidate is refuted."""
    data = bundled_config("refuted-fixture")
    data["chain"] = {"mode": "empirical"}
    return data


class TestConfigParsing:
    def test_minimal_defaults(self):
        cfg = ExperimentConfig.from_json_dict(minimal_dict())
        assert cfg.scenario == "unit-test"
        assert cfg.envelope.lam == 1.0
        assert cfg.envelope.p == 1.5
        assert cfg.initial_data.name == "zero"
        assert cfg.initial_data.seed == 0
        assert cfg.chain.mode == "fixed"
        assert cfg.chain.alpha == 1.0
        assert cfg.checks == ()
        assert cfg.solve.sigma_mode == "adaptive"
        assert cfg.cascade.levels == 4
        assert cfg.oracle is None
        assert cfg.sweep is None

    def test_round_trip(self):
        data = checked_dict(
            checks=["lemma1", "lemma2"],
            envelope={"lambda": 1.0, "p": 1.5},
            tolerances={"delta": 0.01},
        )
        cfg = ExperimentConfig.from_json_dict(data)
        again = ExperimentConfig.from_json_dict(cfg.to_json_dict())
        assert again == cfg
        assert again.to_json_dict() == cfg.to_json_dict()

    @pytest.mark.parametrize("name", bundled_scenarios())
    def test_bundled_scenario_round_trip(self, name):
        cfg = parse_config(name)
        assert ExperimentConfig.from_json_dict(cfg.to_json_dict()) == cfg

    def test_values_are_read_by_their_annotations(self):
        cfg = ExperimentConfig.from_json_dict(minimal_dict(
            grid={**GRID, "half_width": 2, "cells_per_axis": 8.0},
            cascade={"base_point": [0, 1]},
            tolerances={"delta": 1},
        ))
        assert cfg.grid.half_width == 2.0 and type(cfg.grid.half_width) is float
        assert type(cfg.grid.cells_per_axis) is int
        assert cfg.cascade.base_point == (0.0, 1.0)
        assert type(cfg.tolerances["delta"]) is float

    @pytest.mark.parametrize(
        "section, match",
        [
            ({"grid": {**GRID, "cells_per_axis": True}}, "cells_per_axis"),
            ({"grid": {**GRID, "t_end": float("inf")}}, "t_end must be finite"),
            ({"grid": {k: v for k, v in GRID.items() if k != "dt"}}, "needs 'dt'"),
            ({"hamiltonian": {**ROUGH, "table": {"dimension": 1}}},
             "hamiltonian.table needs"),
            ({"scenario": 5}, "scenario must be a string"),
            ({"checks": ["lemma1", 2]}, r"checks\[1\]"),
            ({"sweep": {"parameter": "eta", "values": ["x"]}}, r"values\[0\]"),
            ({"chain": {"mode": "empirical", "alpha": 0.5}},
             "empirical chain mode does not read 'alpha'"),
            ({"chain": {"mode": "fixed", "candidates": [8.0, 0.1]}},
             "fixed chain mode does not read 'candidates'"),
        ],
    )
    def test_coercion_faults_name_the_key(self, section, match):
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_json_dict(minimal_dict(**section))

    def test_empirical_chain_drops_alpha(self):
        cfg = ExperimentConfig.from_json_dict(
            minimal_dict(chain={"mode": "empirical", "alpha": 1.0})
        )
        assert cfg.chain.alpha is None

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="'foo'"):
            ExperimentConfig.from_json_dict(minimal_dict(foo=1))

    def test_unknown_check_lists_valid_names(self):
        with pytest.raises(ConfigError, match="lemma1"):
            ExperimentConfig.from_json_dict(
                checked_dict(checks=["not-a-check"])
            )

    def test_envelope_exponent_must_match(self):
        with pytest.raises(ConfigError, match="does not match"):
            ExperimentConfig.from_json_dict(
                minimal_dict(envelope={"lambda": 1.0, "p": 2.0})
            )

    def test_truncation_needs_p_below_dimension(self):
        data = checked_dict(
            hamiltonian={"kind": "power-law", "p": 2.0},
            checks=["lemma1"],
        )
        with pytest.raises(ConfigError, match="p < N"):
            ExperimentConfig.from_json_dict(data)

    def test_check_window_must_fit_the_grid(self):
        data = minimal_dict(checks=["lemma2"])
        with pytest.raises(ConfigError, match="time range"):
            ExperimentConfig.from_json_dict(data)

    def test_check_ball_needs_padding(self):
        data = checked_dict(checks=["lemma1"])
        data["grid"]["half_width"] = 1.1
        with pytest.raises(ConfigError, match="padding"):
            ExperimentConfig.from_json_dict(data)

    @pytest.mark.parametrize("grid, rule", [
        ({"t_end": 1.5}, "time range .* does not cover"),
        ({"half_width": 1.1}, "padding"),
    ], ids=["time-range", "padding"])
    @pytest.mark.parametrize("name", ["lemma1", "lemma2", "osc_above", "osc_below"])
    def test_config_gate_and_check_raise_the_same_coverage_text(self, name, grid, rule):
        """A grid that misses a check's own cylinder is refused at parse time
        with the text that the check itself raises, before any cell is read."""
        data = checked_dict(checks=[name])
        data["grid"].update(grid)
        with pytest.raises(ConfigError, match=rule) as gate:
            ExperimentConfig.from_json_dict(data)
        spec = GridSpec(**data["grid"])
        f = field_from_values(spec, np.zeros((spec.n_slices, *spec.spatial_shape)))
        env = CoercivityEnvelope(lam=1.0, p=1.5)
        chain = build_constant_chain(2, 1.5, 2.0, 1.0)
        direct = {
            "lemma1": lambda: lemma_one_check(tables_of(f, lemma_one_reads()), env, 0.1),
            "lemma2": lambda: lemma_two_check(tables_of(f, lemma_two_reads()), env,
                                              1.0, 0.1, {}),
            "osc_above": lambda: oscillation_above_check(
                tables_of(f, above_reads(chain)), chain, {}),
            "osc_below": lambda: oscillation_below_check(
                tables_of(f, below_reads(chain)), chain, {}),
        }[name]
        with pytest.raises(ValueError) as check:
            direct()
        assert type(check.value) is ValueError
        assert str(gate.value) == f"check {name!r}: {check.value}"

    def test_oracle_requires_the_plain_power_law(self):
        data = minimal_dict(
            hamiltonian={"kind": "rough-coefficient", "p": 1.5,
                         "lambda": 2.0, "eta": 0.25},
            oracle={"refinements": 1},
        )
        with pytest.raises(ConfigError, match="power law"):
            ExperimentConfig.from_json_dict(data)

    def test_oracle_window_range(self):
        with pytest.raises(ConfigError, match="window"):
            ExperimentConfig.from_json_dict(
                minimal_dict(oracle={"window": 1.5})
            )

    def test_eta_sweep_requires_rough_coefficients(self):
        data = minimal_dict(sweep={"parameter": "eta", "values": [0.25]})
        with pytest.raises(ConfigError, match="rough-coefficient"):
            ExperimentConfig.from_json_dict(data)

    def test_unsweepable_parameter(self):
        data = minimal_dict(sweep={"parameter": "dt", "values": [0.1]})
        with pytest.raises(ConfigError, match="sweepable"):
            ExperimentConfig.from_json_dict(data)

    def test_chain_candidates_sort_descending(self):
        data = minimal_dict(
            chain={"mode": "empirical", "candidates": [0.5, 2.0, 1.0]}
        )
        cfg = ExperimentConfig.from_json_dict(data)
        assert cfg.chain.candidates == (2.0, 1.0, 0.5)

    def test_fixed_chain_needs_positive_alpha(self):
        with pytest.raises(ConfigError, match="alpha"):
            ExperimentConfig.from_json_dict(
                minimal_dict(chain={"alpha": -1.0})
            )

    def test_unknown_chain_mode(self):
        with pytest.raises(ConfigError, match="chain mode"):
            ExperimentConfig.from_json_dict(
                minimal_dict(chain={"mode": "adaptive"})
            )

    @pytest.mark.parametrize("section", ["cascade", "theorem"])
    def test_unknown_zoom_mode(self, section):
        for mode in ("extrapolate", "interpolate"):
            with pytest.raises(ConfigError, match="mode"):
                ExperimentConfig.from_json_dict(
                    minimal_dict(**{section: {"mode": mode}})
                )

    @pytest.mark.parametrize("section", ["cascade", "theorem"])
    def test_resolve_is_the_default_and_still_parses(self, section):
        written = ExperimentConfig.from_json_dict(
            minimal_dict(**{section: {"mode": "resolve"}})
        )
        default = ExperimentConfig.from_json_dict(minimal_dict())
        assert getattr(written, section).mode == "resolve"
        assert written == default

    def test_theorem_delta_time_inside_the_grid(self):
        data = checked_dict(checks=["theorem"],
                            theorem={"delta_time": 5.0})
        with pytest.raises(ConfigError, match="delta_time"):
            ExperimentConfig.from_json_dict(data)

    def test_cascade_base_point_dimension(self):
        data = checked_dict(checks=["cascade"],
                            cascade={"base_point": [0.0]})
        with pytest.raises(ConfigError, match="coordinates"):
            ExperimentConfig.from_json_dict(data)

    def test_cascade_base_point_off_the_boundary(self):
        data = checked_dict(checks=["cascade"],
                            cascade={"base_point": [1.2, 0.0]})
        with pytest.raises(ConfigError, match="boundary"):
            ExperimentConfig.from_json_dict(data)

    def test_grid_errors_are_config_errors(self):
        data = minimal_dict()
        data["grid"]["dt"] = 0.3
        with pytest.raises(ConfigError, match="grid"):
            ExperimentConfig.from_json_dict(data)

    def test_solve_errors_are_config_errors(self):
        with pytest.raises(ConfigError, match="solve"):
            ExperimentConfig.from_json_dict(
                minimal_dict(solve={"sigma_mode": "turbo"})
            )

    def test_initial_data_errors_are_config_errors(self):
        with pytest.raises(ConfigError, match="initial_data"):
            ExperimentConfig.from_json_dict(
                minimal_dict(initial_data={"name": "mystery"})
            )

    def test_unknown_tolerance_key(self):
        with pytest.raises(ConfigError, match="rigor"):
            ExperimentConfig.from_json_dict(
                minimal_dict(tolerances={"rigor": 1.0})
            )

    def test_config_error_is_a_value_error(self):
        assert issubclass(ConfigError, ValueError)


JSON_VALUES = st.recursive(
    st.one_of(
        st.integers(), st.floats(), st.sampled_from(["nan", "inf", "-inf"]),
        st.text(max_size=8), st.none(), st.booleans(),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=8), inner, max_size=3),
    ),
    max_leaves=6,
)


def key_paths(node, prefix=()):
    """Every dict key and list index of a JSON tree, at any depth."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from key_paths(value, prefix + (key,))


def parameter_keys(name):
    """The JSON keys of a catalog generator's parameters, as ``to_json``
    writes them."""
    cls = initial_data._CATALOG[name]
    required = {f.name: 1.5 for f in fields(cls) if f.default is MISSING}
    return sorted(to_json(cls(**required)))


class TestConfigFuzz:
    @pytest.mark.parametrize("name", bundled_scenarios())
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_replaced_value_parses_or_is_a_config_error(self, name, data):
        config = bundled_config(name)
        path = data.draw(st.sampled_from(sorted(key_paths(config), key=repr)))
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = data.draw(JSON_VALUES)
        try:
            ExperimentConfig.from_json_dict(config)
        except ConfigError:
            pass

    def test_oracle_gate_allocates_no_axis(self):
        """A 1-D grid that the lattice rule admits, with billions of cells
        per axis: the oracle gate reads two cell centres of each refinement,
        so the config parses (a draw of the test above once raised
        ``MemoryError`` on the whole axis)."""
        config = bundled_config("hopf-lax-validation")
        config["grid"]["cells_per_axis"] = 2919258602
        try:
            ExperimentConfig.from_json_dict(config)
        except ConfigError:
            pass

    @pytest.mark.parametrize("name", sorted(initial_data._CATALOG))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_initial_data_parameters_parse_or_are_a_config_error(self, name, data):
        keys = st.sampled_from(parameter_keys(name) + ["unknown"])
        parameters = data.draw(st.dictionaries(keys, JSON_VALUES, max_size=4))
        config = minimal_dict(initial_data={"name": name, "parameters": parameters})
        try:
            ExperimentConfig.from_json_dict(config)
        except ConfigError:
            pass


class TestConfigFiles:
    def test_parse_file(self, tmp_path):
        path = write_config(tmp_path, minimal_dict())
        cfg = parse_config(path)
        assert cfg.scenario == "unit-test"

    def test_bundled_name_fallback(self):
        cfg = parse_config("refuted-fixture")
        assert cfg.scenario == "refuted-fixture"

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("no-such-config.json")

    def test_invalid_json_names_the_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"scenario": }')
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(path)

    def test_top_level_must_be_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="top level"):
            parse_config(path)

    def test_all_bundled_scenarios_parse(self):
        names = bundled_scenarios()
        assert len(names) >= 7
        for name in names:
            cfg = parse_config(name)
            assert cfg.scenario == name

    def test_unknown_scenario_name(self):
        with pytest.raises(ConfigError, match="neither a file nor a bundled scenario"):
            parse_config("missing")


class TestReportSerialization:
    def _report(self, checks):
        return RunReport(
            version=SCHEMA_VERSION,
            scenario="unit-test",
            status="pass",
            config={},
            chain=None,
            chain_search=None,
            checks=checks,
            artifacts=(),
            error=None,
            timings={"total": 0.25},
        )

    def test_non_finite_floats_become_null(self):
        report = self._report(
            ({"check": "c", "status": "pass", "value": math.inf,
              "also": float("nan")},)
        )
        entry = report.to_json_dict()["checks"][0]
        assert entry["value"] is None
        assert entry["also"] is None

    def test_numpy_scalars_become_plain_json(self):
        report = self._report(
            ({"check": "c", "status": "pass",
              "mix": (np.float64(1.5), np.int32(2), np.bool_(True))},)
        )
        entry = report.to_json_dict()["checks"][0]
        assert entry["mix"] == [1.5, 2, True]
        json.dumps(entry)

    def test_stable_bytes_drop_timings(self):
        report = self._report(())
        data = json.loads(report.stable_bytes())
        assert "timings" not in data
        assert data["version"] == SCHEMA_VERSION

    def test_every_json_file_of_a_run_is_strict(self, monkeypatch, tmp_path):
        # zero data has no oscillation to fit: every Holder estimate of its
        # cascade and theorem checks is infinite, and is written as null
        estimates = []

        def spy(records, chain):
            estimate = holder_estimate(records, chain)
            estimates.append(estimate.alpha_est)
            return estimate

        monkeypatch.setattr(experiment, "holder_estimate", spy)
        monkeypatch.setattr(rescale, "holder_estimate", spy)
        run(parse_config("zero-initial-data"), out_dir=tmp_path)
        assert estimates and all(a == math.inf for a in estimates)
        run_dir = tmp_path / "zero-initial-data-seed0"
        written = {path.relative_to(run_dir).as_posix(): strict_json(path.read_text())
                   for path in run_dir.rglob("*.json")}
        assert sorted(written) == ["chain.json", "report.json",
                                   "snapshots/first_steps.json",
                                   "snapshots/last_steps.json"]
        checks = {c["check"]: c for c in written["report.json"]["checks"]}
        assert checks["cascade"]["estimate"]["alpha_est"] is None
        assert checks["theorem"]["alpha_min"] is None
        assert [e["alpha_est"] for e in checks["theorem"]["entries"]] == [None] * 8


_CHAIN_KEYS = [
    "barrier_height", "barrier_slope", "decay_ratio", "dimension",
    "holder_exponent", "invariant_slacks", "invariants_ok", "ladder_depth",
    "lambda", "middle_threshold", "p", "prezoom_scale",
    "prezoom_time_exponent", "shrink_above", "shrink_below", "zoom_ratio",
    "zoom_time_exponent",
]


def _chain_stdout():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["chain", "--N", "2", "--p", "1.5", "--lambda", "1",
                     "--alpha", "1"]) == 0
    return json.loads(out.getvalue())


# Each key list is copied from the reports and stdout the parent commit wrote.
@pytest.mark.parametrize("build, keys", [
    pytest.param(lambda: to_json(HolderEstimate(
        alpha_est=math.inf, c_est=0.0, fit_residual=0.0, scale_range=(0.0, 0.0),
        points_used=0, degenerate=True, alpha_theory=1e-6,
    )), [
        "alpha_est", "alpha_theory", "c_est", "degenerate", "fit_residual",
        "points_used", "scale_range",
    ], id="HolderEstimate"),
    pytest.param(lambda: to_json(TheoremReport(
        delta_time=1.0, gauged=False, alpha_theory=1e-6, entries=(),
        alpha_min=math.inf, max_quotient=0.0, n_degenerate=0, n_unsatisfied=0,
        status="pass",
    )), [
        "alpha_min", "alpha_theory", "delta_time", "entries", "gauged",
        "max_quotient", "n_degenerate", "n_unsatisfied", "status",
    ], id="TheoremReport"),
    pytest.param(lambda: to_json(OscillationRecord(
        level=0, radius=0.5, t_depth=1.0, osc_measured=0.0, osc_bound=4.0,
        recenter=0.0, satisfied=True, tolerance=0.0,
    )), [
        "level", "osc_bound", "osc_measured", "radius", "recenter",
        "satisfied", "t_depth", "tolerance",
    ], id="OscillationRecord"),
    pytest.param(lambda: to_json(GridSpec(**GRID)), [
        "cells_per_axis", "dimension", "dt", "half_width", "t_end", "t_start",
    ], id="GridSpec"),
    pytest.param(lambda: to_json(RunReport(
        version=SCHEMA_VERSION, scenario="s", status="pass", config={},
        chain=None, chain_search=None, checks=(), artifacts=(), error=None,
        timings={},
    )), [
        "artifacts", "chain", "chain_search", "checks", "config", "error",
        "scenario", "status", "timings", "version",
    ], id="RunReport"),
    pytest.param(lambda: to_json(EnsembleReport(
        version=SCHEMA_VERSION, scenario="s", status="pass", config={},
        count=0, seed=0, member_seeds=(), counts={}, chain_search=None,
        members=(), artifacts=(), timings={},
    )), [
        "artifacts", "chain_search", "config", "count", "counts",
        "member_seeds", "members", "scenario", "seed", "status", "timings",
        "version",
    ], id="EnsembleReport"),
    pytest.param(lambda: to_json(LemmaVerdict(
        name="n", preconditions={}, hypotheses={}, conclusions={},
        tolerances={}, cell_width=0.1,
    )), [
        "cell_width", "conclusion_satisfied", "conclusion_thresholds",
        "conclusion_values", "diagnostics", "hypothesis_satisfied",
        "hypothesis_thresholds", "hypothesis_values", "name", "preconditions",
        "status", "tolerances",
    ], id="LemmaVerdict"),
    pytest.param(
        lambda: build_constant_chain(2, 1.5, 1.0, 1.0).to_json_dict(),
        _CHAIN_KEYS, id="ConstantChain",
    ),
    pytest.param(_chain_stdout, _CHAIN_KEYS, id="chain-stdout"),
])
def test_json_keys_match_the_written_reports(build, keys):
    assert sorted(build()) == keys


def test_every_check_returns_a_report_that_carries_its_status():
    cfg = parse_config("zero-initial-data")
    chain = experiment._build_chain(cfg)
    init = cfg.initial_data
    fn = make_initial_function(cfg.grid, init.name, init.parameters, init.seed)
    reads = [read for check in experiment._CHECKS.values()
             for read in check.reads(cfg, chain)]
    terms = list(dict.fromkeys(term for check in experiment._CHECKS.values()
                               for term in check.terms(cfg, chain)))
    tables = SliceTables(cfg.grid, reads)
    rows = ResidualRows(cfg.grid, cfg.envelope.p, terms,
                        Window(cfg.grid, UNIT_CYLINDER).mask)
    traj = experiment.solve(cfg.grid, cfg.hamiltonian, fn, cfg.solve,
                            scan=SliceScan(cfg.grid, [tables, rows]))
    residuals = dict(zip(terms, rows.reports()))
    statuses = {"pass", "vacuous", "refuted", "precondition-violated", "error"}
    assert set(experiment._CHECKS) == set(cfg.checks)
    for name, check in experiment._CHECKS.items():
        report = check.run(cfg, traj, chain, cfg.hamiltonian, {}, "", tables,
                           residuals)
        status = to_json(report)["status"]
        assert status in statuses, name
        if is_dataclass(report):
            assert report.status == status, name


@pytest.fixture()
def quiet_run_config():
    return ExperimentConfig.from_json_dict(
        checked_dict(
            checks=["lemma1", "lemma2", "osc_above", "osc_below"],
            initial_data={
                "name": "random-trig",
                "parameters": {"amplitude": 0.0008, "offset": -0.003},
                "seed": 0,
            },
        )
    )


class TestRun:
    def test_small_amplitude_run_passes(self, tmp_path, quiet_run_config):
        report = run(quiet_run_config, out_dir=tmp_path)
        assert report.version == SCHEMA_VERSION
        assert report.status == "pass"
        assert [c["check"] for c in report.checks] == [
            "lemma1", "lemma2", "osc_above", "osc_below"
        ]
        assert all(c["status"] in ("pass", "vacuous") for c in report.checks)
        run_dir = tmp_path / "unit-test-seed0"
        assert (run_dir / "report.json").is_file()
        assert (run_dir / "chain.json").is_file()
        assert "chain.json" in report.artifacts
        assert any(a.startswith("snapshots/") for a in report.artifacts)
        assert all(not a.startswith("/") for a in report.artifacts)

    def test_rerun_is_byte_identical(self, tmp_path, quiet_run_config):
        first = run(quiet_run_config, out_dir=tmp_path / "a")
        second = run(quiet_run_config, out_dir=tmp_path / "b")
        assert first.stable_bytes() == second.stable_bytes()

    def test_refuted_fixture_refutes(self, tmp_path):
        report = run(parse_config("refuted-fixture"), out_dir=tmp_path)
        assert report.status == "refuted"
        lemma = report.checks[0]
        assert lemma["check"] == "lemma1"
        assert lemma["status"] == "refuted"

    def test_solver_abort_reports_the_stage(self, tmp_path):
        report = run(parse_config("solver-abort-fixture"), out_dir=tmp_path)
        assert report.status == "error"
        assert report.error is not None
        assert report.error["stage"] == "solve"
        assert isinstance(report.error["step_index"], int)
        run_dir = tmp_path / "solver-abort-fixture-seed0"
        assert (run_dir / "report.json").is_file()

    def test_seed_override_lands_in_the_run_directory(self, tmp_path,
                                                      quiet_run_config):
        report = run(quiet_run_config, out_dir=tmp_path, seed=5)
        assert report.config["initial_data"]["seed"] == 5
        assert (tmp_path / "unit-test-seed5" / "report.json").is_file()

    def test_resolution_override_rescales_dt(self, tmp_path):
        cfg = ExperimentConfig.from_json_dict(minimal_dict())
        report = run(cfg, out_dir=tmp_path, resolution=4)
        assert report.config["grid"]["cells_per_axis"] == 4
        assert report.config["grid"]["dt"] == pytest.approx(0.25)

    def test_empirical_alpha_takes_the_first_survivor(self, tmp_path,
                                                      monkeypatch):
        solves = count_solves(monkeypatch)
        data = checked_dict(
            checks=["lemma2"],
            chain={"mode": "empirical", "candidates": [4.0, 1.0]},
        )
        cfg = ExperimentConfig.from_json_dict(data)
        report = run(cfg, out_dir=tmp_path)
        assert report.chain_search == ({"alpha": 4.0, "status": "pass"},)
        assert report.config["chain"] == {"mode": "fixed", "alpha": 4.0}
        # the chosen trial is the run: it is not solved again
        assert len(solves) == 1

    def test_all_refuted_search_keeps_the_last_trial(self, tmp_path, monkeypatch):
        solves = count_solves(monkeypatch)
        cfg = ExperimentConfig.from_json_dict(refuted_empirical_dict())
        report = run(cfg, out_dir=tmp_path)
        assert report.status == "refuted"
        assert [t["alpha"] for t in report.chain_search] == list(
            cfg.chain.candidates)
        assert all(t["status"] == "refuted" for t in report.chain_search)
        assert report.config["chain"] == {"mode": "fixed",
                                          "alpha": min(cfg.chain.candidates)}
        assert len(solves) == len(cfg.chain.candidates)

    @pytest.mark.parametrize("which", ["first-survivor", "all-refuted"])
    def test_empirical_run_writes_the_fixed_run_at_its_alpha(self, tmp_path,
                                                             which):
        if which == "first-survivor":
            data = checked_dict(
                checks=["lemma1", "lemma2", "osc_above", "osc_below"],
                initial_data={
                    "name": "random-trig",
                    "parameters": {"amplitude": 0.0008, "offset": -0.003},
                },
                chain={"mode": "empirical", "candidates": [4.0, 1.0]},
            )
        else:
            data = refuted_empirical_dict()
        searched = run(ExperimentConfig.from_json_dict(data),
                       out_dir=tmp_path / "searched")
        data["chain"] = searched.config["chain"]
        assert data["chain"]["mode"] == "fixed"
        run(ExperimentConfig.from_json_dict(data), out_dir=tmp_path / "fixed")
        name = f"{searched.scenario}-seed0"
        got = output_tree(tmp_path / "searched" / name)
        want = output_tree(tmp_path / "fixed" / name)
        assert len(got) >= 5
        assert set(got) == set(want)
        got_report, want_report = got.pop("report.json"), want.pop("report.json")
        # every artifact is byte-identical
        assert got == want
        assert got_report.pop("chain_search") == list(searched.chain_search)
        assert want_report.pop("chain_search") is None
        assert got_report == want_report

    def test_uncaught_failure_writes_nothing(self, tmp_path, monkeypatch,
                                             quiet_run_config):
        def solve(*args, **kwargs):
            raise MemoryError("no room for the trajectory")

        monkeypatch.setattr(experiment, "solve", solve)
        with pytest.raises(MemoryError):
            run(quiet_run_config, out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_traced_run_sees_every_check(self, tmp_path):
        # perfbench rebinds each check where a module holds it; the check
        # table must reach the rebound names, not the ones seen at import
        spans = runpy.run_path(
            str(Path(__file__).resolve().parents[1] / "perfbench" / "spans.py")
        )
        from hjreg import hamiltonians
        modules = [m for n, m in sys.modules.items() if n.startswith("hjreg")]
        saved = {m: dict(vars(m)) for m in modules}
        classes = (hamiltonians.HamiltonianSpec, hamiltonians.TransformedHamiltonian)
        saved_eval = {cls: cls.__dict__["eval"] for cls in classes}
        tracer = spans["Tracer"]()
        try:
            spans["install"](tracer)
            report = experiment.run(parse_config("zero-initial-data"),
                                    out_dir=tmp_path)
        finally:
            for mod, attrs in saved.items():
                vars(mod).update(attrs)
            for cls, fn in saved_eval.items():
                cls.eval = fn
        assert [c["check"] for c in report.checks] == list(CHECK_NAMES)
        calls = spans["summarize"](tracer)
        for name in ("degiorgi.lemma_one_check", "degiorgi.lemma_two_check",
                     "oscillation.oscillation_below_check", "rescale.zoom_cascade",
                     "rescale.theorem_check"):
            assert calls[f"{name}.calls"] >= 1, name
        # the direct call and the reflected one inside the check from below
        assert calls["oscillation.oscillation_above_check.calls"] >= 2

    def test_cascade_check_matches_the_theorem_entry_at_its_point(self, tmp_path):
        zoom = {"levels": 3, "working_cells": 24, "working_slices": 32}
        data = checked_dict(
            initial_data={"name": "random-trig",
                          "parameters": {"amplitude": 0.5}, "seed": 5},
            checks=["cascade", "theorem"],
            cascade={**zoom, "base_time": 1.0, "base_point": [-0.625, -0.625]},
            theorem={**zoom, "delta_time": 1.0, "points_per_axis": 1},
        )
        # the draw is steep enough that dt = 0.05 breaks monotonicity
        data["grid"]["dt"] = 0.01
        report = run(ExperimentConfig.from_json_dict(data), out_dir=tmp_path)
        cascade, theorem = report.checks
        (entry,) = theorem["entries"]
        assert entry["t0"] == cascade["base_time"]
        assert entry["x0"] == cascade["base_point"]
        for key in ("gamma", "tau", "rho"):
            assert entry[key] == cascade[key]
        records = cascade["records"]
        assert entry["n_records"] == len(records) == 4
        assert entry["n_unsatisfied"] == sum(not r["satisfied"] for r in records)
        assert not cascade["estimate"]["degenerate"]
        assert {k: entry[k] for k in cascade["estimate"]} == cascade["estimate"]


class TestResidualPass:
    """The lemma and oscillation checks read their residuals from one pass
    per march, which the march feeds as it runs: one
    ``solver.ResidualRows`` of the run's terms for every marched member,
    fed each slice once."""

    @pytest.fixture()
    def passes(self, monkeypatch):
        seen = []

        class Spy(hjreg.solver.ResidualRows):
            def __init__(self, spec, p, terms, ball=None, members=1):
                super().__init__(spec, p, terms, ball, members)
                if self.terms:
                    seen.append(self.terms)
                    self.rows_taken = 0

            def take(self, lo, hi, slab):
                super().take(lo, hi, slab)
                if self.terms:
                    # slab is (members, slices, cells)
                    self.rows_taken += slab.shape[1] - 1
                    assert self.rows_taken <= self.spec.n_slices - 1

        monkeypatch.setattr(experiment, "ResidualRows", Spy)
        return seen

    def test_oscillation_run_makes_one_pass(self, passes):
        report, _ = experiment._compute(parse_config("oscillation-improvement"))
        assert report.status == "pass"
        [terms] = passes
        # the supersolution, the shared subsolution and its reflection
        assert len(terms) == 3
        assert sorted(term.reflected for term in terms) == [False, False, True]

    def test_one_unit_cylinder_oscillation_per_trajectory(self, monkeypatch):
        """osc_above, the reflected osc_above inside osc_below and osc_below
        each read the one-cell oscillation of the unit cylinder, whose
        reflection holds the same pairs: the march fills the unit ball's
        jump table once, a block at a time, and all three tolerances are
        the whole-field oracle's value."""
        filled = []
        original = SliceTables._jumps

        def spy(self, lo, hi, slab, tables):
            filled.extend((radius, lo, hi) for radius, _ in tables)
            return original(self, lo, hi, slab, tables)

        monkeypatch.setattr(SliceTables, "_jumps", spy)
        cfg = parse_config("oscillation-improvement")
        report, _ = experiment._compute(cfg)
        unit = [(lo, hi) for radius, lo, hi in filled if radius == 1.0]
        cells = math.prod(cfg.grid.spatial_shape)
        assert unit == list(slice_blocks(0, cfg.grid.n_slices, cells))
        above, below = report.checks
        reflected = below["diagnostics"]["reflected_above"]
        init = cfg.initial_data
        fn = make_initial_function(cfg.grid, init.name, init.parameters, init.seed)
        whole = experiment.solve(cfg.grid, cfg.hamiltonian, fn, cfg.solve).field
        expected = reference.one_cell_oscillation(whole, Window(cfg.grid, UNIT_CYLINDER))
        assert (above["tolerances"]["bounded_by_two"],
                reflected["tolerances"]["bounded_by_two"],
                below["tolerances"]["lower_bound"]) == (expected,) * 3

    def test_ensemble_member_with_four_checks_makes_one_pass(self, passes):
        data = bundled_config("small-mass-ensemble")
        data["checks"] = ["lemma1", "lemma2", "osc_above", "osc_below"]
        report, _ = experiment._compute(ExperimentConfig.from_json_dict(data))
        assert [c["check"] for c in report.checks] == data["checks"]
        assert all(c["status"] != "error" for c in report.checks)
        [terms] = passes
        # lemma2's subsolution term beside the three oscillation terms
        assert len(terms) == 4

    def test_a_failing_check_records_its_own_error(self, passes):
        data = bundled_config("small-mass-ensemble")
        data["checks"] = ["lemma2", "osc_above", "osc_below"]
        data["grid"]["t_end"] = 2.5
        report, _ = experiment._compute(ExperimentConfig.from_json_dict(data))
        lemma2, above, below = report.checks
        assert lemma2["status"] == above["status"] == "pass"
        assert below == {
            "check": "osc_below", "status": "error",
            "message": "time interval [-2.0, 2.5] is not symmetric about 0; "
                       "reflection would leave the lattice",
        }
        assert report.status == "error"
        assert len(passes) == 1

    def test_a_failing_pass_is_an_error_of_each_check_that_reads_it(self, passes):
        cfg = parse_config("small-mass-ensemble")
        cfg = replace(cfg, checks=("lemma1", "lemma2", "osc_above", "osc_below"),
                      grid=replace(cfg.grid, half_width=1.0))
        report, _ = experiment._compute(cfg)
        message = ("box half-width 1.0 leaves less than two cells of padding "
                   "around the radius-1.0 ball")
        assert report.checks == tuple(
            {"check": name, "status": "error", "message": message}
            for name in cfg.checks)
        assert passes == []


def level_zero_oracle(cfg):
    """The config's initial function, the inner cells of the run's own grid
    and the inf-convolution there at the grid's end: what the oracle
    compares level 0 against."""
    spec, init = cfg.grid, cfg.initial_data
    fn = make_initial_function(spec, init.name, init.parameters, init.seed)
    centers = spec.centers().reshape(-1, spec.dimension)
    inner = np.max(np.abs(centers), axis=1) <= cfg.oracle.window * spec.half_width
    elapsed = float(spec.times()[-1] - spec.t_start)
    return fn, inner, hjreg.solver.hopf_lax(fn, elapsed, centers[inner],
                                            cfg.hamiltonian.p)


def oracle_level_zero_error(cfg):
    """The oracle's sup error on the run's own grid, from a whole solve."""
    fn, inner, want = level_zero_oracle(cfg)
    whole = hjreg.solver.solve(cfg.grid, cfg.hamiltonian, fn, cfg.solve)
    return float(np.abs(whole.field.values[-1].reshape(-1)[inner] - want).max())


class TestOracleReuse:
    """The oracle's level 0 is the run's own grid: the run hands the oracle
    its comparison slice, and the oracle solves only the refinements."""

    def test_validation_run_solves_twice_and_writes_the_same_report(
        self, tmp_path, monkeypatch
    ):
        cfg = parse_config("hopf-lax-validation")
        solves = count_solves(monkeypatch)
        report = run(cfg, out_dir=tmp_path)
        # the run's solve and the one refinement
        assert [args[0].cells_per_axis for args in solves] == [256, 512]
        assert report.status == "pass"
        [oracle] = report.checks
        assert oracle["sup_errors"][0] == oracle_level_zero_error(cfg)

    def test_oracle_time_inside_the_grid_keeps_that_slice(self, monkeypatch):
        cfg = parse_config("hopf-lax-validation")
        cfg = replace(cfg, oracle=replace(cfg.oracle, time=0.25))
        ti = experiment._oracle_slice(cfg, cfg.grid)
        assert cfg.grid.times()[ti] == pytest.approx(0.25)
        fields, bases = [], []
        original_solve, original_outcome = experiment.solve, experiment._oracle_outcome

        def solve(*args, **kwargs):
            traj = original_solve(*args, **kwargs)
            fields.append(traj.field)
            return traj

        def outcome(cfg, base):
            bases.append(base)
            return original_outcome(cfg, base)

        monkeypatch.setattr(experiment, "solve", solve)
        monkeypatch.setattr(experiment, "_oracle_outcome", outcome)
        report, _ = experiment._compute(cfg)
        assert report.status == "pass"
        assert ti in fields[0].kept.tolist()
        init = cfg.initial_data
        fn = initial_data.make_initial_function(cfg.grid, init.name,
                                                init.parameters, init.seed)
        whole = original_solve(cfg.grid, cfg.hamiltonian, fn, cfg.solve)
        [base] = bases
        assert base.tobytes() == whole.field.values[ti].tobytes()

    def test_a_snapped_dt_solves_only_the_refinements(self, monkeypatch):
        cfg = parse_config("hopf-lax-validation")
        # a dt the grid accepts, though span / steps snaps to the exact 1/500
        grid = replace(cfg.grid, dt=0.002 * (1.0 + 1e-9))
        cfg = ExperimentConfig.from_json_dict({**cfg.to_json_dict(),
                                               "grid": to_json(grid)})
        assert cfg.grid.dt != 0.002
        grids = experiment._oracle_grids(cfg)
        assert grids[0] == cfg.grid
        solves = count_solves(monkeypatch)
        report, _ = experiment._compute(cfg)
        assert report.status == "pass"
        # the run's solve, then the refinement alone
        assert [args[0] for args in solves] == grids
        [oracle] = report.checks
        assert oracle["sup_errors"][0] == oracle_level_zero_error(cfg)


def test_an_exact_level_before_an_inexact_one_is_refuted():
    """Errors 0 then positive: the refinement lost accuracy, order -inf."""
    cfg = parse_config("hopf-lax-validation")
    _, inner, want = level_zero_oracle(cfg)
    exact = np.zeros(cfg.grid.spatial_shape)
    exact.reshape(-1)[inner] = want
    outcome = experiment._oracle_outcome(cfg, exact)
    assert outcome["sup_errors"][0] == 0.0 < outcome["sup_errors"][1]
    assert outcome["orders"] == [-math.inf]
    assert not outcome["monotone"]
    assert outcome["status"] == "refuted"


def tiny_ensemble_dict():
    # dt well under the CFL limit for the random draws' slopes
    return minimal_dict(
        grid={
            "dimension": 2,
            "half_width": 1.25,
            "cells_per_axis": 8,
            "t_start": 0.0,
            "t_end": 0.25,
            "dt": 0.03125,
        },
        initial_data={
            "name": "random-trig",
            "parameters": {"amplitude": 0.05},
        },
    )


@pytest.fixture()
def tiny_ensemble_config():
    return ExperimentConfig.from_json_dict(tiny_ensemble_dict())


class TestEnsemble:
    def test_members_run_in_seed_order(self, tmp_path, tiny_ensemble_config):
        report = ensemble(tiny_ensemble_config, 3, 9, out_dir=tmp_path)
        assert report.count == 3
        assert report.status == "pass"
        assert report.counts == {"pass": 3, "vacuous": 0, "refuted": 0,
                                 "error": 0}
        children = np.random.SeedSequence(9).spawn(3)
        expected = tuple(int(c.generate_state(1, np.uint64)[0])
                         for c in children)
        assert report.member_seeds == expected
        for i, member in enumerate(report.members):
            assert member["config"]["initial_data"]["seed"] == expected[i]
            assert "timings" not in member
        ens_dir = tmp_path / "unit-test-ensemble-seed9-n3"
        assert (ens_dir / "report.json").is_file()
        for i in range(3):
            assert (ens_dir / "members" / f"m{i:03d}" / "report.json").is_file()

    def test_parallel_matches_serial(self, tmp_path, tiny_ensemble_config):
        empirical = ExperimentConfig.from_json_dict(
            {**tiny_ensemble_dict(), "chain": {"mode": "empirical"}}
        )
        members = "unit-test-ensemble-seed4-n2/members"
        for mode, cfg in (("fixed", tiny_ensemble_config),
                          ("empirical", empirical)):
            serial = ensemble(cfg, 2, 4, out_dir=tmp_path / mode / "s",
                              workers=1)
            parallel = ensemble(cfg, 2, 4, out_dir=tmp_path / mode / "p",
                                workers=2)
            assert serial.stable_bytes() == parallel.stable_bytes()
            assert (serial.chain_search is None) is (mode == "fixed")
            tree = output_tree(tmp_path / mode / "s" / members)
            # two members, each with its report and two snapshot pairs
            assert len(tree) == 10
            assert tree == output_tree(tmp_path / mode / "p" / members)

    def test_empirical_ensemble_solves_each_member_once(self, tmp_path,
                                                        monkeypatch,
                                                        quiet_run_config):
        solves = count_solves(monkeypatch)
        cfg = replace(quiet_run_config,
                      chain=ChainSettings(mode="empirical",
                                          candidates=(4.0, 1.0)))
        report = ensemble(cfg, 2, 1, out_dir=tmp_path, workers=1)
        assert report.chain_search == ({"alpha": 4.0, "status": "pass"},)
        # one march of the two members' initial data
        assert [len(args[2]) for args in solves] == [2]
        members = tmp_path / "unit-test-ensemble-seed1-n2" / "members"
        for i in range(2):
            assert (members / f"m{i:03d}" / "chain.json").is_file()

    @pytest.mark.parametrize("workers", [0, -3, 2.5, True, "2"])
    def test_worker_count_must_be_a_positive_integer(
        self, tmp_path, tiny_ensemble_config, workers
    ):
        with pytest.raises(ConfigError, match="workers must be a positive integer"):
            ensemble(tiny_ensemble_config, 2, 4, out_dir=tmp_path,
                     workers=workers)
        assert list(tmp_path.iterdir()) == []

    def test_worker_count_env_var(self, tmp_path, monkeypatch,
                                  tiny_ensemble_config):
        monkeypatch.setenv("HJREG_WORKERS", "2")
        report = ensemble(tiny_ensemble_config, 2, 4, out_dir=tmp_path)
        assert report.status == "pass"

    def test_count_must_be_positive(self, tmp_path, tiny_ensemble_config):
        with pytest.raises(ConfigError, match="count"):
            ensemble(tiny_ensemble_config, 0, 1, out_dir=tmp_path)

    def test_seed_must_not_be_negative(self, tmp_path, tiny_ensemble_config):
        with pytest.raises(ConfigError, match="seed"):
            ensemble(tiny_ensemble_config, 1, -1, out_dir=tmp_path)


class TestCli:
    def test_run_pass_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_dict())
        code = main(["run", "--config", str(path), "--out",
                     str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "status: pass" in out
        assert "report:" in out

    def test_run_refuted_exit_one(self, tmp_path, capsys):
        code = main(["run", "--config", "refuted-fixture", "--out",
                     str(tmp_path)])
        assert code == 1
        assert "status: refuted" in capsys.readouterr().out

    def test_bad_config_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_dict(foo=1))
        code = main(["run", "--config", str(path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["../../escape", "nested/label", "..", ".", ""])
    def test_scenario_label_cannot_leave_the_output_root(self, tmp_path, capsys, label):
        path = write_config(tmp_path, minimal_dict(scenario=label))
        out = tmp_path / "a" / "b"
        code = main(["run", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert "single path component" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize(
        "overrides, args, workers",
        [(*case, None) for case in [
            ({}, ["--resolution", "0"]),
            ({}, ["--resolution", "2"]),
            ({"chain": {"alpha": "big"}}, []),
            ({"cascade": {"levels": -1}}, []),
            ({"theorem": {"working_slices": 0}}, []),
            ({"theorem": {"mode": "interpolate"}}, []),
            ({"grid": []}, []),
            ({"initial_data": {"name": "random-trig",
                               "parameters": {"amplitude": "NaN"}}}, []),
            ({"tolerances": {"delta": "nan"}}, []),
            ({"tolerances": {"delta": -1}}, []),
            ({"checks": 5}, []),
            ({"grid": {**GRID, "t_end": "inf"}}, []),
            ({"grid": {**GRID, "cells_per_axis": 8.7}}, []),
            ({"grid": {**GRID, "dimension": 10**9}}, []),
            ({"grid": {**GRID, "t_end": 1e308}}, []),
            ({"grid": {**GRID, "half_width": 10**400}}, []),
            ({"hamiltonian": ROUGH, "sweep": {"parameter": "eta", "values": "12"}},
             []),
            ({"hamiltonian": ROUGH, "sweep": {"parameter": "eta", "values": [-1]}},
             []),
            ({"oracle": {"min_order": "-inf"}}, []),
            ({"oracle": {"max_error": "nan"}}, []),
            ({"oracle": {"time": 99}}, []),
            ({"oracle": {"window": 0.001}}, []),
            ({"grid": {**GRID, "cells_per_axis": 9}, "oracle": {"window": 0.001}},
             []),
            ({"oracle": {"refinements": 60}}, []),
            ({"chain": {"alpha": "nan"}}, []),
            ({"envelope": {"lambda": "nan"}}, []),
            ({"initial_data": {"seed": -1}}, []),
            ({}, ["--seed", "-1"]),
            ({"solve": {"max_steps": 0}}, []),
            ({"solve": {"max_steps": -1}}, []),
            ({"solve": {"sigma_mode": "fixed", "sigma_bound": -1}}, []),
            ({"hamiltonian": {"kind": "power-law", "p": "inf"}}, []),
            ({"initial_data": {"name": "random-trig",
                               "parameters": {"amplitude": [1, 2]}}}, []),
            ({"initial_data": {"name": "random-trig",
                               "parameters": {"bandwidth": 0}}}, []),
            ({"initial_data": {"name": "cone", "parameters": {"center": [0.0]}}},
             []),
            ({"chain": {"mode": "empirical", "alpha": 0.5}}, []),
            ({"chain": {"mode": "fixed", "candidates": [8.0, 0.1]}}, []),
            ({"initial_data": {"name": "random-trig",
                               "parameters": {"n_modes": 1.5}}}, []),
            ({"initial_data": {"name": "random-trig",
                               "parameters": {"n_modes": True}}}, []),
            ({"initial_data": {"name": "constant", "parameters": {"value": "1"}}},
             []),
            ({"checks": ["cascade"], "chain": {"alpha": 0.005}}, []),
            ({"initial_data": {"name": "random-trig",
                               "parameters": {"n_modes": 10**12}}}, []),
            ({"hamiltonian": {"kind": "power-law", "p": 1.5, "coefficient": 3.0}},
             []),
            ({"hamiltonian": {"kind": "power-law", "p": 1.5, "eta": -1}}, []),
            ({"sweep": {"parameter": "lambda", "values": [1, 2, 4]}}, []),
            ({"hamiltonian": ROUGH,
              "sweep": {"parameter": "coefficient", "values": [1, 2]}}, []),
            ({"hamiltonian": tabulated(dimension=1)}, []),
            ({"hamiltonian": tabulated(dimension=3)}, []),
            ({"hamiltonian": tabulated(t_edges=[1.0, 0.0], half_width=-1.25)}, []),
            ({"hamiltonian": tabulated(half_width=-1.25)}, []),
            (bundled_config("oscillation-improvement"), ["--resolution", "6"]),
            (bundled_config("zero-initial-data"), ["--resolution", "6"]),
            # the gate once let 1.5 - 2 * 0.6 round above the base point's 0.3
            ({"grid": {**GRID, "half_width": 1.5, "cells_per_axis": 5,
                       "t_start": -2.0, "t_end": 2.0, "dt": 0.025},
              "checks": ["cascade"], "cascade": {"base_point": [0.3, 0.0]}}, []),
            ({"hamiltonian": ROUGH,
              "sweep": {"parameter": "eta", "values": [0.25, 0.2500001]}}, []),
        ]] + [({}, [], w) for w in ("abc", "2.5", "0", "-3", "")],
        ids=["resolution-0", "resolution-2", "alpha-big", "levels-negative",
             "working-slices-zero", "theorem-mode-interpolate", "grid-list",
             "amplitude-nan", "delta-nan",
             "delta-negative", "checks-int", "t-end-inf", "cells-fractional",
             "dimension-huge", "steps-overflow", "half-width-overflow",
             "sweep-values-string", "sweep-eta-negative",
             "min-order-minus-inf", "max-error-nan", "oracle-time-past-t-end",
             "oracle-window-empty", "oracle-window-empty-when-refined",
             "oracle-refinements-huge",
             "alpha-nan", "envelope-lambda-nan", "seed-negative",
             "seed-override-negative", "max-steps-zero", "max-steps-negative",
             "sigma-bound-negative", "p-inf", "amplitude-list",
             "bandwidth-zero", "cone-center-short", "empirical-chain-alpha",
             "fixed-chain-candidates", "n-modes-fractional", "n-modes-bool",
             "constant-value-string", "alpha-overflow", "n-modes-huge",
             "power-law-coefficient", "power-law-eta-negative",
             "sweep-lambda-power-law", "sweep-coefficient-rough",
             "table-dimension-1", "table-dimension-3", "table-edges-decreasing",
             "table-half-width-negative", "osc-checks-resolution-6",
             "every-check-resolution-6", "cascade-base-point-at-the-edge",
             "sweep-labels-collide", "workers-word",
             "workers-fraction", "workers-zero", "workers-negative",
             "workers-empty"],
    )
    def test_configuration_faults_exit_two(self, tmp_path, capsys, monkeypatch,
                                           overrides, args, workers):
        path = write_config(tmp_path, minimal_dict(**overrides))
        out = tmp_path / "out"
        if workers is None:
            argv = ["run", "--config", str(path), "--out", str(out), *args]
        else:
            monkeypatch.setenv("HJREG_WORKERS", workers)
            monkeypatch.setenv("HJREG_OUT_DIR", str(out))
            argv = ["ensemble", "--config", str(path), "--count", "2",
                    "--seed", "0", *args]
        code = main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("data", [
        {"name": "zero"}, {"name": "constant", "parameters": {"value": 0.5}},
    ], ids=["zero", "constant"])
    def test_exactly_solved_oracle_data_passes(self, tmp_path, capsys, data):
        path = write_config(tmp_path, {**bundled_config("hopf-lax-validation"),
                                       "initial_data": data})
        code = main(["run", "--config", str(path), "--out", str(tmp_path)])
        assert code == 0
        assert "  oracle: pass (sup_error=0)\n" in capsys.readouterr().out
        report = json.loads(
            (tmp_path / "hopf-lax-validation-seed0" / "report.json").read_text())
        [oracle] = report["checks"]
        # both levels exact: converged, with the infinite order written as null
        assert oracle["sup_errors"] == [0.0, 0.0]
        assert oracle["orders"] == [None]
        assert oracle["monotone"] is True

    @pytest.mark.parametrize("resolution", ["0", "-3"])
    def test_resolution_names_the_grid_rule(self, tmp_path, capsys, resolution):
        code = main(["run", "--config", "zero-initial-data", "--out", str(tmp_path),
                     "--resolution", resolution])
        assert code == 2
        err = capsys.readouterr().err
        assert (f"resolution {resolution}: cells_per_axis must be >= 4, "
                f"got {resolution}") in err

    def test_printed_report_paths_are_the_written_ones(self, tmp_path, monkeypatch,
                                                        capsys):
        monkeypatch.setenv("HJREG_OUT_DIR", str(tmp_path / "env"))
        path = write_config(tmp_path, tiny_ensemble_dict())
        assert main(["run", "--config", str(path), "--seed", "5"]) == 0
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert main(["ensemble", "--config", str(path), "--count", "2",
                     "--seed", "4"]) == 0
        printed = [line.removeprefix("report: ")
                   for line in capsys.readouterr().out.splitlines()
                   if line.startswith("report: ")]
        assert printed == [
            str(tmp_path / "env" / "unit-test-seed5" / "report.json"),
            str(tmp_path / "unit-test-seed0" / "report.json"),
            str(tmp_path / "env" / "unit-test-ensemble-seed4-n2" / "report.json"),
        ]
        assert all(Path(p).is_file() for p in printed)

    def test_solver_abort_exit_three(self, tmp_path, capsys):
        code = main(["run", "--config", "solver-abort-fixture", "--out",
                     str(tmp_path)])
        assert code == 3
        assert "status: error" in capsys.readouterr().out

    def test_aborted_theorem_cascades_exit_three(self, tmp_path):
        # two of the eight base points need more than max_steps steps at
        # level 0, and an aborted cascade makes the whole scan an error
        data = bundled_config("rough-eta-sweep")
        del data["sweep"]
        data.update(checks=["theorem"], solve={"max_steps": 500})
        data["theorem"]["working_cells"] = 96
        code = main(["run", "--config", str(write_config(tmp_path, data)),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        [path] = (tmp_path / "out").glob("*/report.json")
        [theorem] = json.loads(path.read_text())["checks"]
        assert theorem["status"] == "error"
        aborted = [e["aborted"] for e in theorem["entries"] if "aborted" in e]
        assert len(aborted) == 2
        assert all(a.startswith("cascade aborted at level 0") for a in aborted)

    def test_ensemble_command(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HJREG_OUT_DIR", str(tmp_path))
        path = write_config(tmp_path, tiny_ensemble_dict())
        code = main(["ensemble", "--config", str(path), "--count", "2",
                     "--seed", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "members: 2" in out
        assert "status: pass" in out

    def test_chain_command_prints_json(self, capsys):
        code = main(["chain", "--N", "2", "--p", "1.5", "--lambda", "1.0",
                     "--alpha", "1.0"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ladder_depth"] == 13

    def test_chain_command_rejects_p_at_dimension(self, capsys):
        code = main(["chain", "--N", "2", "--p", "2.5", "--lambda", "1.0",
                     "--alpha", "1.0"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    # Settings whose small alpha rounds decay_ratio to 1.0 and
    # zoom_time_exponent to p, so the zoom_ratio identity is undefined.
    @pytest.mark.parametrize("alpha", ["0.25", "0.1"])
    @pytest.mark.parametrize("n, p, lam", [
        ("2", "1.5", "1"), ("3", "2", "2"), ("3", "1.5", "1"), ("3", "2", "1"),
    ])
    def test_chain_whose_zoom_exponent_rounds_to_p_exits_two(
            self, capsys, n, p, lam, alpha):
        code = main(["chain", "--N", n, "--p", p, "--lambda", lam,
                     "--alpha", alpha])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: chain re-verification failed" in err
        assert "zoom_ratio: slack=-inf" in err
        assert "Traceback" not in err

    @settings(max_examples=200, deadline=None)
    @given(n=st.sampled_from([2, 3]) | st.integers(4, 400),
           p=st.floats(1.0, 3.0, exclude_min=True, exclude_max=True),
           lam=st.floats(1.0, 8.0),
           log_alpha=st.floats(math.log(1e-320), math.log(16.0)) | st.just(math.inf))
    @example(n=2, p=1.5, lam=1.0, log_alpha=math.log(0.005))
    @example(n=2, p=1.5, lam=1.0, log_alpha=math.log(1e-320))
    # p near 1: the zoom ratio underflows to 0.0
    @example(n=3, p=1.0390625, lam=1.0, log_alpha=-4.0)
    # Gamma(N/2 + 1) in the ball volume overflows from N = 342 on
    @example(n=342, p=2.0, lam=1.0, log_alpha=0.0)
    @example(n=3, p=2.0, lam=1.0, log_alpha=math.inf)
    def test_chain_command_exits_zero_or_two(self, n, p, lam, log_alpha):
        assume(p < n)
        alpha = (min(max(math.exp(log_alpha), 1e-320), 16.0)
                 if math.isfinite(log_alpha) else math.inf)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["chain", "--N", str(n), "--p", repr(p),
                         "--lambda", repr(lam), "--alpha", repr(alpha)])
        assert code in (0, 2)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert strict_json(out.getvalue())["middle_threshold"] == alpha

    @pytest.mark.parametrize("n, p, lam, alpha, names", [
        pytest.param("342", "2", "1", "1", "overflow", id="342-1"),
        pytest.param("3", "2", "1", "inf", "middle threshold", id="3-inf"),
        pytest.param("3", "2", "1", "nan", "middle threshold", id="3-nan"),
        pytest.param("2", "1.5", "nan", "1", "ellipticity constant",
                     id="lambda-nan"),
    ])
    def test_chain_command_rejects_an_overflow_or_a_threshold_not_finite(
            self, capsys, n, p, lam, alpha, names):
        code = main(["chain", "--N", n, "--p", p, "--lambda", lam,
                     "--alpha", alpha])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err
        assert names in captured.err
        assert "Traceback" not in captured.err

    def test_run_with_an_unbuildable_chain_reports_the_chain_stage(
            self, tmp_path, capsys):
        data = bundled_config("oscillation-improvement")
        data["chain"] = {"mode": "fixed", "alpha": 0.25}
        out = tmp_path / "out"
        code = main(["run", "--config", str(write_config(tmp_path, data)),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "config error: chain alpha 0.25" in err
        assert "zoom_ratio" in err
        assert not out.exists()

    @pytest.mark.parametrize("section,key,value", [
        ("grid", "dt", 1e300), ("initial_data", "seed", 1e300),
        ("initial_data", "seed", 2**64),
    ], ids=["one-slice-grid", "seed-1e300", "seed-2-to-the-64"])
    def test_a_value_past_the_grid_or_seed_range_exits_two(
            self, tmp_path, capsys, section, key, value):
        # dt = 1e300 rounds the step count of a unit span to 0; a seed of
        # 301 digits named a run directory the file system refuses
        data = bundled_config("oscillation-improvement")
        data[section][key] = value
        out = tmp_path / "out"
        code = main(["run", "--config", str(write_config(tmp_path, data)),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_a_cell_too_small_for_the_lattice_scale_exits_two(self, tmp_path, capsys):
        # (0.5 / h) ** p overflows a float for a cell width of 3e-302
        data = bundled_config("solver-abort-fixture")
        data["grid"]["half_width"] = 1e-300
        out = tmp_path / "out"
        code = main(["run", "--config", str(write_config(tmp_path, data)),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: grid cell width 3.125e-302 is too small" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("levels", [400, 1e300])
    def test_a_cascade_that_overflows_at_a_deep_level_aborts(
            self, tmp_path, capsys, levels):
        # the zoomed Hamiltonian's scales grow each level until a float **
        # overflows; the cascade reports that level as its abort
        data = bundled_config("zero-initial-data")
        data["checks"] = ["cascade"]
        data["cascade"]["levels"] = levels
        out = tmp_path / "out"
        code = main(["run", "--config", str(write_config(tmp_path, data)),
                     "--out", str(out)])
        assert code == 3
        assert "Traceback" not in capsys.readouterr().err
        [path] = out.rglob("report.json")
        [check] = json.loads(path.read_text())["checks"]
        assert check["status"] == "error"
        assert re.fullmatch(r"cascade aborted at level \d+: arithmetic overflow: .*",
                            check["aborted"])

    def test_an_ensemble_seed_past_64_bits_exits_two(self, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.setenv("HJREG_OUT_DIR", str(tmp_path / "out"))
        code = main(["ensemble", "--config", "zero-initial-data", "--count", "2",
                     "--seed", str(10**300)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: ensemble needs 0 <= seed < 2**64" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_a_lattice_too_large_to_allocate_exits_two(self, tmp_path):
        # 4e12 slices of 20^2 cells pass the 2**60-value rule, but their
        # slice times alone take 29 TiB; the address-space cap makes the
        # allocation fail on any host
        data = bundled_config("zero-initial-data")
        data["grid"]["dt"] = 1e-12
        out = tmp_path / "out"
        code = (
            "import resource, sys\n"
            "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
            "cap = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
            "from hjreg.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(hjreg.__file__).parents[1]),
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        done = subprocess.run(
            [sys.executable, "-c", code, "run", "--config",
             str(write_config(tmp_path, data)), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 2
        assert "config error: grid too large to allocate" in done.stderr
        assert "Traceback" not in done.stderr
        assert not out.exists()

    def test_cli_import_leaves_scipy_and_the_process_pool_unloaded(self):
        # serial runs never start a pool, and no module needs scipy
        code = (
            "import sys, hjreg.cli\n"
            "from hjreg.experiment import parse_config\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m == 'concurrent.futures.process'))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(hjreg.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"

    def test_list_scenarios(self, capsys):
        code = main(["list-scenarios"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert tuple(lines) == bundled_scenarios()
        assert "zero-initial-data" in lines

    def test_check_names_are_frozen(self):
        assert CHECK_NAMES == ("lemma1", "lemma2", "osc_above", "osc_below",
                               "cascade", "theorem")
