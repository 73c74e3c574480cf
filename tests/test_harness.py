"""Tests for the benchmark harness: configs, manifests, the vanilla
baseline, trace serialization, experiment runs, and the CLI front end."""

import gc
import inspect
import json
import re
import weakref

import numpy as np
import pytest
import scipy.io
from numpy.testing import assert_allclose

from aalm import harness
from aalm.cli import main
from aalm.diagnostics import TRACE_FIELDS, TraceRecord, energy, fit_rate, gap
from aalm.harness import (ConfigError, VanillaConfig, build_problem,
                          load_instance, parse_config, read_trace_csv,
                          run_experiment, run_vanilla, summarize_trace,
                          write_trace_csv)
from aalm.oracle import kkt_refine, kkt_solve_qp, load_kkt, save_kkt
from aalm.problems import (KKTPoint, make_lp_regression, make_random_lp,
                           make_random_qp, make_ring_logistic)
from aalm.subsolver import MaxInnerIterations, step_plan
from aalm.schedule import ScheduleError, nesterov
from aalm import solver as aalm_solver
from aalm import subsolver
from aalm.solver import SolverConfig, StoppingRule, resolve_config, run


def _qp_config(**overrides):
    cfg = {
        "problem": {"builtin": "qp", "n": 12, "m": 4, "seed": 3},
        "iterations": 60,
        "solvers": [
            {"name": "accel", "method": "aalm",
             "schedule": {"rule": "nesterov"}, "case": "explicit"},
            {"name": "plain", "method": "vanilla", "case": "explicit"},
        ],
    }
    cfg.update(overrides)
    return cfg


def _write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestParseConfig:
    """Strict parsing: every key is checked, defaults are explicit."""

    def test_minimal_roundtrip_defaults(self):
        """A dict config parses with documented defaults filled in."""
        cfg = parse_config(_qp_config())
        assert cfg.iterations == 60
        assert cfg.seed == 0
        assert cfg.output_dir == "results"
        assert cfg.emit_gnuplot is False
        assert [s.name for s in cfg.solvers] == ["accel", "plain"]
        assert cfg.solvers[0].method == "aalm"
        assert isinstance(cfg.solvers[0].config, SolverConfig)
        assert cfg.solvers[0].config.max_iter == 60
        assert isinstance(cfg.solvers[1].config, VanillaConfig)

    def test_file_path_roundtrip(self, tmp_path):
        """Parsing the same config from a JSON file gives the same result."""
        path = _write_config(tmp_path, _qp_config())
        cfg = parse_config(path)
        assert cfg == parse_config(str(path)) == parse_config(_qp_config())

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            parse_config(tmp_path / "nope.json")

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="malformed JSON"):
            parse_config(path)

    def test_not_an_object_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            parse_config([1, 2, 3])

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(_qp_config(tolerance=1e-6))

    def test_missing_required_key_rejected(self):
        cfg = _qp_config()
        del cfg["problem"]
        with pytest.raises(ConfigError, match="'problem'"):
            parse_config(cfg)

    def test_unknown_solver_key_rejected(self):
        cfg = _qp_config()
        cfg["solvers"][0]["momentum"] = 0.9
        with pytest.raises(ConfigError, match="unknown key.*solver"):
            parse_config(cfg)

    def test_solver_needs_name(self):
        cfg = _qp_config()
        del cfg["solvers"][0]["name"]
        with pytest.raises(ConfigError, match="name"):
            parse_config(cfg)

    def test_duplicate_names_rejected(self):
        cfg = _qp_config()
        cfg["solvers"][1]["name"] = "accel"
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(cfg)

    def test_no_solvers_rejected(self):
        with pytest.raises(ConfigError, match="at least one solver"):
            parse_config(_qp_config(solvers=[]))

    def test_iterations_below_one_rejected(self):
        with pytest.raises(ConfigError, match="iterations"):
            parse_config(_qp_config(iterations=0))

    def test_unknown_method_rejected(self):
        cfg = _qp_config()
        cfg["solvers"][0]["method"] = "adam"
        with pytest.raises(ConfigError, match="unknown method"):
            parse_config(cfg)

    def test_unknown_case_rejected(self):
        """A case outside the known two fails at parse time, for the
        accelerated and the baseline entries alike."""
        for i in (0, 1):
            cfg = _qp_config()
            cfg["solvers"][i]["case"] = "semismooth"
            with pytest.raises(ConfigError, match="unknown case"):
                parse_config(cfg)

    def test_accelerated_solver_needs_schedule(self):
        cfg = _qp_config()
        del cfg["solvers"][0]["schedule"]
        with pytest.raises(ConfigError, match="schedule"):
            parse_config(cfg)

    def test_vanilla_rejects_acceleration_keys(self):
        """Schedule/scaling/use_eig make no sense for the baseline."""
        for bad, value in (("schedule", {"rule": "nesterov"}),
                           ("use_eig", True),
                           ("scaling", {"form": "constant"})):
            cfg = _qp_config()
            cfg["solvers"][1][bad] = value
            with pytest.raises(ConfigError, match="vanilla"):
                parse_config(cfg)

    def test_vanilla_delta_above_beta_rejected(self):
        """A baseline with delta > beta would run at beta - delta < 0 on
        t_k = 1; parsing rejects it and names the solver."""
        cfg = _qp_config()
        cfg["solvers"][1].update(delta=2.0, beta=1.5)
        with pytest.raises(ConfigError, match="'plain' needs delta <= beta"):
            parse_config(cfg)
        cfg["solvers"][1]["beta"] = 2.0
        assert parse_config(cfg).solvers[1].config.delta == 2.0

    def test_use_eig_accepted_and_ignored(self, tmp_path, monkeypatch):
        """Older aalm entries may carry a boolean use_eig; it changes no
        output.  Any other value is rejected."""
        plain = _qp_config()
        flagged = _qp_config()
        flagged["solvers"][0]["use_eig"] = True
        outputs = []
        for i, cfg in enumerate((plain, flagged)):
            monkeypatch.setenv("AALM_OUTPUT_DIR", str(tmp_path / str(i)))
            run_experiment(parse_config(cfg))
            outputs.append([(tmp_path / str(i) / name).read_bytes()
                            for name in ("accel.trace.csv",
                                         "plain.trace.csv", "summary.csv")])
        assert outputs[0] == outputs[1]
        flagged["solvers"][0]["use_eig"] = "yes"
        with pytest.raises(ConfigError, match="use_eig"):
            parse_config(flagged)

    def test_schedule_block(self):
        """Rule aliases, alpha, eta keywords and rho overrides all land."""
        cfg = _qp_config()
        cfg["solvers"][0]["schedule"] = {"rule": "cd", "alpha": 5.0,
                                         "eta": "noncritical"}
        sched = parse_config(cfg).solvers[0].config.schedule
        assert sched.rule == "chambolle-dossal"
        assert sched.alpha == 5.0
        assert sched.eta == "noncritical"
        cfg["solvers"][0]["schedule"]["rho"] = 0.25
        assert parse_config(cfg).solvers[0].config.schedule.rho == 0.25
        cfg["solvers"][0]["schedule"] = {"rule": "sqrt"}
        with pytest.raises(ConfigError, match="unknown schedule rule"):
            parse_config(cfg)
        cfg["solvers"][0]["schedule"] = {"rule": "nesterov", "power": 2}
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(cfg)

    def test_nesterov_alpha_rejected(self, tmp_path, capsys):
        """Nesterov has no alpha: a config giving one is a config error
        (exit 1) naming it, not a schedule that silently drops it.  A
        null alpha is the absent one."""
        cfg = _qp_config()
        cfg["solvers"][0]["schedule"] = {"rule": "nesterov", "alpha": 3.0}
        with pytest.raises(ScheduleError, match="nesterov takes no alpha"):
            parse_config(cfg)
        assert main(["run", str(_write_config(tmp_path, cfg))]) == 1
        assert capsys.readouterr().err.startswith(
            "error: nesterov takes no alpha, got 3.0")
        cfg["solvers"][0]["schedule"]["alpha"] = None
        assert parse_config(cfg).solvers[0].config.schedule.alpha is None

    def test_scaling_block(self):
        """t-power scaling puts xi(t) = t^e on the schedule; constant
        scaling an explicit unit xi."""
        cfg = _qp_config()
        cfg["solvers"][0]["case"] = "implicit"
        cfg["solvers"][0]["scaling"] = {"form": "t-power", "exponent": 0.5}
        scaled = parse_config(cfg).solvers[0].config.schedule
        assert scaled.rule == "nesterov"
        assert scaled.xi(4.0) == 2.0
        cfg["solvers"][0]["scaling"] = {"form": "constant"}
        unit = parse_config(cfg).solvers[0].config.schedule
        assert unit.xi is not None
        assert unit.xi(np.arange(1.0, 4.0)).tolist() == [1.0, 1.0, 1.0]
        cfg["solvers"][0]["scaling"] = {"form": "exp"}
        with pytest.raises(ConfigError, match="unknown scaling form"):
            parse_config(cfg)

    def test_stop_block(self):
        """Stop tolerances attach to a rule; the budget stays the
        config's iteration count."""
        cfg = _qp_config()
        cfg["solvers"][0]["stop"] = {"feas_tol": 1e-9, "stat_tol": 1e-7}
        solver_cfg = parse_config(cfg).solvers[0].config
        stop = solver_cfg.stop
        assert solver_cfg.max_iter == 60
        assert stop.feas_tol == 1e-9
        assert stop.stat_tol == 1e-7
        cfg["solvers"][0]["stop"] = {"gap_tol": 1e-9}
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(cfg)

    def test_inner_policy_keys(self):
        """The inner Newton's tolerance schedule and step budget are
        fixed: inner_tol and max_inner are unknown keys on either
        method."""
        for i, key, value in ((0, "inner_tol", 1e-6), (1, "max_inner", 7)):
            cfg = _qp_config()
            cfg["solvers"][i][key] = value
            with pytest.raises(ConfigError,
                               match=rf"unknown key\(s\) \['{key}'\]"):
                parse_config(cfg)


def _write_matrix(path, arr):
    if str(path).endswith(".mtx"):
        scipy.io.mmwrite(str(path), np.atleast_2d(arr))
    else:
        np.savetxt(path, arr, delimiter=",")
    return path.name


class TestManifest:
    """Manifests bind an objective kind to matrix files on disk."""

    def test_qp_manifest_roundtrip(self, tmp_path):
        """A qp manifest mixing .mtx and .csv files rebuilds the instance."""
        Q = np.array([[4.0, 1.0], [1.0, 3.0]])
        q = np.array([1.0, -2.0])
        A = np.array([[1.0, 1.0]])
        b = np.array([2.0])
        manifest = {"name": "paper-qp",
                    "objective": {"kind": "qp", "Q": "Q.mtx", "q": "q.csv"},
                    "A": "A.csv", "b": "b.csv"}
        _write_matrix(tmp_path / "Q.mtx", Q)
        _write_matrix(tmp_path / "q.csv", q)
        _write_matrix(tmp_path / "A.csv", A)
        _write_matrix(tmp_path / "b.csv", b)
        (tmp_path / "inst.json").write_text(json.dumps(manifest))
        inst = load_instance(tmp_path / "inst.json")
        assert inst.name == "paper-qp"
        assert inst.dim == 2 and inst.n_constraints == 1
        Q_loaded, q_loaded = inst.objective.quadratic
        assert_allclose(Q_loaded, Q, atol=0)
        assert_allclose(q_loaded, q, atol=0)
        assert_allclose(inst.A, A, atol=0)
        assert_allclose(inst.b, b, atol=0)
        x = np.array([0.5, -1.0])
        assert_allclose(inst.objective.value(x),
                        0.5 * x @ Q @ x + q @ x, rtol=1e-15)

    def test_sparse_constraint_manifest(self, tmp_path):
        """A coordinate-format A.mtx that lists one (i, j) entry twice
        loads as a C-ordered float ndarray bitwise equal to its dense .csv
        twin holding the pair's sum, reloads bitwise, and gives exactly
        the twin's ``kkt_solve_qp`` pair."""
        rng = np.random.default_rng(7)
        G = rng.normal(size=(6, 6))
        Q = G @ G.T + np.eye(6)
        q = rng.normal(size=6)
        A = (rng.normal(size=(3, 6)) * (rng.random((3, 6)) < 0.5)
             + np.eye(3, 6))
        b = rng.normal(size=3)
        half = rng.normal()
        rows, cols = np.nonzero(A)
        entries = [(i, j, A[i, j]) for i, j in zip(rows, cols)]
        entries.append((0, 0, half))
        A[0, 0] += half
        (tmp_path / "A.mtx").write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            f"3 6 {len(entries)}\n"
            + "".join(f"{i + 1} {j + 1} {float(v)!r}\n"
                      for i, j, v in entries))
        for fname, arr in (("A.csv", A), ("Q.csv", Q), ("q.csv", q),
                           ("b.csv", b)):
            _write_matrix(tmp_path / fname, arr)
        for stem, a_file in (("sparse", "A.mtx"), ("twin", "A.csv")):
            manifest = {"name": "sparse-qp", "A": a_file, "b": "b.csv",
                        "objective": {"kind": "qp", "Q": "Q.csv",
                                      "q": "q.csv"}}
            (tmp_path / f"{stem}.json").write_text(json.dumps(manifest))
        inst, again, twin = (load_instance(tmp_path / f"{stem}.json")
                             for stem in ("sparse", "sparse", "twin"))
        assert type(inst.A) is np.ndarray and inst.A.dtype == np.float64
        assert inst.A.flags.c_contiguous
        for other in (twin, again):
            assert other.A.shape == inst.A.shape
            assert other.A.tobytes() == inst.A.tobytes()
        assert twin.A.tobytes() == A.tobytes()
        ref = kkt_solve_qp(Q, q, inst.A, inst.b)
        want = kkt_solve_qp(Q, q, twin.A, twin.b)
        assert ref.x.tobytes() == want.x.tobytes()
        assert ref.lam.tobytes() == want.lam.tobytes()

    @pytest.mark.parametrize("fname, text", [
        ("A.mtx", "%%MatrixMarket matrix coordinate complex general\n"
                  "1 2 2\n1 1 1.0 5.0\n1 2 1.0 0.0\n"),
        ("A.csv", "1.0,abc\n"),
        ("A.csv", "1.0,nan\n"),
    ], ids=["complex-mtx", "non-numeric-csv", "nan-csv"])
    def test_non_real_matrix_rejected(self, tmp_path, fname, text):
        """A matrix file that does not hold finite real numbers is a
        ConfigError naming the file: a complex Matrix Market ``A``
        (``1+5i`` at (1, 1)) is not loaded with its imaginary parts
        dropped, a ``.csv`` entry that is no number does not surface as
        numpy's bare ValueError, and a NaN entry does not reach the
        solvers (``aalm oracle`` reported it as a QP without a finite KKT
        point)."""
        (tmp_path / fname).write_text(text)
        for name, arr in (("Q.csv", np.eye(2)), ("q.csv", np.ones(2)),
                          ("b.csv", np.ones(1))):
            _write_matrix(tmp_path / name, arr)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"objective": {"kind": "qp", "Q": "Q.csv",
                                                  "q": "q.csv"},
                                    "A": fname, "b": "b.csv"}))
        with pytest.raises(ConfigError,
                           match=re.escape(str(tmp_path / fname))):
            load_instance(path)

    def test_lp_manifest_roundtrip(self, tmp_path):
        """An lp-regression manifest matches the directly built objective."""
        rng = np.random.default_rng(5)
        B = rng.normal(size=(5, 3))
        c = rng.normal(size=5)
        A = rng.normal(size=(1, 3))
        b = rng.normal(size=1)
        manifest = {"name": "lp-from-disk",
                    "objective": {"kind": "lp-regression", "B": "B.csv",
                                  "c": "c.csv", "p": 1.5},
                    "A": "A.csv", "b": "b.csv"}
        for fname, arr in (("B.csv", B), ("c.csv", c),
                           ("A.csv", A), ("b.csv", b)):
            _write_matrix(tmp_path / fname, arr)
        (tmp_path / "inst.json").write_text(json.dumps(manifest))
        inst = load_instance(tmp_path / "inst.json")
        direct = make_lp_regression(B, c, 1.5, A, b)
        for x in rng.normal(size=(5, 3)):
            assert_allclose(inst.objective.value(x),
                            direct.objective.value(x), rtol=1e-14)
            assert_allclose(inst.objective.gradient(x),
                            direct.objective.gradient(x), rtol=1e-12)

    def test_unknown_objective_kind_rejected(self, tmp_path):
        manifest = {"objective": {"kind": "cubic"}, "A": "A.csv",
                    "b": "b.csv"}
        _write_matrix(tmp_path / "A.csv", np.ones((1, 2)))
        _write_matrix(tmp_path / "b.csv", np.ones(1))
        (tmp_path / "inst.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match="unknown objective kind"):
            load_instance(tmp_path / "inst.json")

    def test_missing_matrix_key_rejected(self, tmp_path):
        manifest = {"objective": {"kind": "qp", "Q": "Q.csv", "q": "q.csv"},
                    "A": "A.csv"}
        (tmp_path / "inst.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match="'b'"):
            load_instance(tmp_path / "inst.json")

    def test_unknown_manifest_key_rejected(self, tmp_path):
        manifest = {"objective": {"kind": "qp", "Q": "Q.csv", "q": "q.csv"},
                    "A": "A.csv", "b": "b.csv", "solver": "aalm"}
        (tmp_path / "inst.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match="unknown key"):
            load_instance(tmp_path / "inst.json")

    @pytest.mark.parametrize("entry, key", [
        ({"A": 3}, "A"), ({"b": [1.0]}, "b"),
        ({"objective": {"kind": "qp", "Q": 5, "q": "q.csv"}}, "Q"),
        ({"objective": {"kind": "lp-regression", "B": "B.csv", "c": {},
                        "p": 1.5}}, "c")])
    def test_matrix_path_not_a_string_rejected(self, tmp_path, entry, key):
        manifest = {"objective": {"kind": "qp", "Q": "Q.csv", "q": "q.csv"},
                    "A": "A.csv", "b": "b.csv", **entry}
        for fname, arr in (("Q.csv", np.eye(2)), ("q.csv", np.ones(2)),
                           ("B.csv", np.eye(2)), ("A.csv", np.ones((1, 2))),
                           ("b.csv", np.ones(1))):
            _write_matrix(tmp_path / fname, arr)
        (tmp_path / "inst.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match=rf"^{key} must be a file path"):
            load_instance(tmp_path / "inst.json")

    def test_unreadable_manifest_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read manifest"):
            load_instance(tmp_path / "absent.json")
        (tmp_path / "bad.json").write_text("{")
        with pytest.raises(ConfigError, match="malformed JSON"):
            load_instance(tmp_path / "bad.json")


class TestBuildProblem:
    """Problem blocks dispatch to the builtin families or a manifest."""

    def test_builtin_qp_matches_direct_construction(self):
        """The block {builtin: qp, ...} equals the direct factory call."""
        inst = build_problem({"builtin": "qp", "n": 8, "m": 3, "seed": 11})
        direct = make_random_qp(n=8, m=3, seed=11)
        assert inst.name == direct.name
        assert_allclose(inst.objective.quadratic[0],
                        direct.objective.quadratic[0], atol=0)
        assert_allclose(inst.A, direct.A, atol=0)

    def test_seed_defaults_to_master_plus_offset(self):
        """Without an explicit seed the master seed is offset by 1000."""
        inst = build_problem({"builtin": "qp", "n": 8, "m": 3},
                             master_seed=7)
        assert inst.name == make_random_qp(n=8, m=3, seed=1007).name

    def test_builtin_lp_and_ring(self):
        lp = build_problem({"builtin": "lp-regression", "d": 6, "n": 4,
                            "p": 1.5, "seed": 2})
        assert lp.name == make_random_lp(d=6, n=4, p=1.5, seed=2).name
        ring = build_problem({"builtin": "ring-logistic", "p_agents": 4,
                              "m_dim": 6, "rho_reg": 0.5, "seed": 2})
        assert ring.name == make_ring_logistic(4, 6, 0.5, seed=2).name

    def test_unknown_builtin_rejected(self):
        with pytest.raises(ConfigError, match="unknown builtin"):
            build_problem({"builtin": "portfolio"})
        with pytest.raises(ConfigError, match="unknown key"):
            build_problem({"builtin": "qp", "dim": 8})

    def test_manifest_dispatch(self, tmp_path):
        """A problem block naming a manifest reads it as a manifest, as
        load_instance does."""
        Q = np.eye(2)
        manifest = {"name": "disk-qp",
                    "objective": {"kind": "qp", "Q": "Q.csv", "q": "q.csv"},
                    "A": "A.csv", "b": "b.csv"}
        for fname, arr in (("Q.csv", Q), ("q.csv", np.zeros(2)),
                           ("A.csv", np.ones((1, 2))), ("b.csv", np.ones(1))):
            _write_matrix(tmp_path / fname, arr)
        (tmp_path / "inst.json").write_text(json.dumps(manifest))
        inst = build_problem({"manifest": str(tmp_path / "inst.json")})
        assert inst.name == "disk-qp"
        with pytest.raises(ConfigError, match="unknown key"):
            build_problem({"manifest": str(tmp_path / "inst.json"),
                           "seed": 3})


# (factory, case, iterations) of the baseline runs whose energy is checked.
VANILLA_FAMILIES = {
    "qp": (lambda: make_random_qp(50, 10), "explicit", 2000),
    "lp": (lambda: make_random_lp(seed=0), "implicit", 1000),
    "ring": (lambda: make_ring_logistic(10, 20, 0.5, seed=0), "explicit",
             300),
}


class TestVanillaBaseline:
    """The non-accelerated proximal ALM used as the comparison point."""

    def test_kkt_point_is_fixed(self, qp_testbed, qp_reference):
        """Started at a KKT pair, the baseline stays there."""
        state, trace = run_vanilla(qp_testbed, VanillaConfig(), 50,
                                   qp_reference.x, qp_reference.lam,
                                   kkt=qp_reference)
        assert np.linalg.norm(state.x_curr - qp_reference.x) <= 1e-12
        assert np.linalg.norm(state.lam_curr - qp_reference.lam) <= 1e-12
        assert max(r.feas for r in trace) <= 1e-13

    @pytest.mark.parametrize("family", sorted(VANILLA_FAMILIES))
    def test_trace_has_unit_t_and_certified_energy(self, family):
        """Baseline records carry t_k = 1 and the energy at beta - delta,
        which never rises above c2's cap from its formula-level E_1."""
        make, case, iters = VANILLA_FAMILIES[family]
        inst = make()
        kkt = kkt_refine(inst)
        vcfg = VanillaConfig(case=case)
        x0, lam0 = np.zeros(inst.dim), np.zeros(inst.n_constraints)
        _, trace = run_vanilla(inst, vcfg, iters, x0, lam0, kkt=kkt)
        assert [r.k for r in trace] == list(range(2, iters + 2))
        assert all(r.t_k == 1.0 for r in trace)
        assert all(np.isfinite(r.obj_res) for r in trace)
        gamma = step_plan(inst, case, backend=False).stepsize(None)
        e1 = energy(inst, kkt, gamma, vcfg.delta, 1.0,
                    vcfg.beta - vcfg.delta, 1.0, x0, x0, lam0, lam0)
        energies = np.array([e1] + [r.energy_E for r in trace])
        assert np.max(np.diff(energies)) <= 1e-10 * max(1.0, e1)

    @pytest.mark.parametrize("delta", [1.0, 0.5])
    def test_gap_is_taken_at_beta_minus_delta(self, qp_testbed,
                                              qp_reference, delta):
        """The recorded gap is H at beta - delta: the gap at beta less
        (delta/2) feas^2.  A short run is a prefix of a long one."""
        vcfg = VanillaConfig(delta=delta)
        x0 = np.zeros(qp_testbed.dim)
        lam0 = np.zeros(qp_testbed.n_constraints)
        _, trace = run_vanilla(qp_testbed, vcfg, 2000, x0, lam0,
                               kkt=qp_reference)
        for n in (1, 2, 5, 20):
            state, short = run_vanilla(qp_testbed, vcfg, n, x0, lam0,
                                       kkt=qp_reference)
            rec = short[-1]
            assert rec == trace[n - 1]
            at_beta = gap(qp_testbed, qp_reference, vcfg.beta, state.x_curr)
            assert_allclose(rec.gap_H + 0.5 * vcfg.delta * rec.feas ** 2,
                            at_beta, rtol=1e-12)

    def test_converges_linearly_on_qp(self, qp_testbed, qp_reference):
        """On a strongly convex QP the fixed-stepsize loop reaches the
        floor quickly (geometric, not power-law, decay)."""
        state, trace = run_vanilla(qp_testbed, VanillaConfig(), 500,
                                   np.zeros(qp_testbed.dim),
                                   np.zeros(qp_testbed.n_constraints),
                                   kkt=qp_reference)
        assert trace[-1].feas <= 1e-12
        assert np.linalg.norm(state.x_curr - qp_reference.x) <= 1e-8

    def test_dual_ascent_identity(self, qp_testbed):
        """lam_{k+1} = lam_k + delta (A x_{k+1} - b), nothing else."""
        rng = np.random.default_rng(3)
        x0 = rng.normal(size=qp_testbed.dim)
        lam0 = rng.normal(size=qp_testbed.n_constraints)
        state, _ = run_vanilla(qp_testbed, VanillaConfig(delta=0.7), 1,
                               x0, lam0)
        predicted = lam0 + 0.7 * (qp_testbed.A @ state.x_curr - qp_testbed.b)
        assert_allclose(state.lam_curr, predicted, atol=1e-12)

    def test_explicit_needs_lipschitz(self):
        """The gradient-step baseline requires a Lipschitz constant."""
        lp = make_random_lp(d=6, n=4, p=1.5, seed=0)
        with pytest.raises(ValueError, match="Lipschitz"):
            run_vanilla(lp, VanillaConfig(), 5,
                        np.zeros(lp.dim), np.zeros(lp.n_constraints))

    def test_explicit_gamma_above_restriction_rejected(self, qp_testbed):
        """The baseline's linearized step obeys the accelerated loop's
        stepsize restriction, checked before any iteration."""
        L = qp_testbed.objective.lipschitz
        x0 = np.zeros(qp_testbed.dim)
        lam0 = np.zeros(qp_testbed.n_constraints)
        with pytest.raises(ValueError, match="stepsize restriction"):
            run_vanilla(qp_testbed, VanillaConfig(gamma=50.0 / L), 1,
                        x0, lam0)
        state, trace = run_vanilla(qp_testbed, VanillaConfig(
            case="implicit", gamma=50.0 / L), 1, x0, lam0)
        x, lam = state.x_curr, state.lam_curr
        assert_allclose(trace[0].step_norm_M ** 2,
                        x @ x / (50.0 / L) + lam @ lam, rtol=1e-12)

    def test_delta_above_beta_rejected(self, qp_testbed):
        """A baseline that would need beta - delta < 0 is not run."""
        with pytest.raises(ConfigError, match="needs delta <= beta"):
            run_vanilla(qp_testbed, VanillaConfig(delta=1.5), 1,
                        np.zeros(qp_testbed.dim),
                        np.zeros(qp_testbed.n_constraints))

    @pytest.mark.parametrize("field", ["gamma", "delta", "beta"])
    def test_nonfinite_stepsize_rejected(self, qp_testbed, field):
        """The baseline's stepsizes are checked by ``resolve_config``,
        once, before any iteration: NaN and, where ``delta <= beta`` lets
        it through, infinity are rejected by name."""
        values = [np.nan, np.inf] if field != "delta" else [np.nan]
        for value in values:
            with pytest.raises(ValueError, match=f"^{field} must be"):
                run_vanilla(qp_testbed, VanillaConfig(
                    case="implicit", **{field: value}), 1,
                    np.zeros(qp_testbed.dim),
                    np.zeros(qp_testbed.n_constraints))

    def test_inner_failure_names_iteration(self, monkeypatch):
        """An inner Newton failure of the baseline names k and t_k."""
        lp = make_random_lp(d=6, n=4, p=1.5, seed=0)
        monkeypatch.setattr(subsolver, "INNER_MAX_STEPS", 1)
        with pytest.raises(MaxInnerIterations, match=r"at k=1, t_k=1$"):
            run_vanilla(lp, VanillaConfig(case="implicit"), 5,
                        np.zeros(lp.dim), np.zeros(lp.n_constraints))

    def test_newton_path_on_ring(self):
        """Implicit subproblems route through the damped Newton solver."""
        ring = make_ring_logistic(4, 6, 0.5, seed=2)
        _, trace = run_vanilla(ring, VanillaConfig(case="implicit"), 30,
                               np.zeros(ring.dim),
                               np.zeros(ring.n_constraints))
        assert trace[-1].feas <= 1e-3
        assert trace[-1].feas <= trace[0].feas / 100


class TestTraceCsv:
    """Trace files round-trip bitwise through repr-formatted CSV."""

    def test_roundtrip_bitwise(self, tmp_path):
        """Accelerated records (numeric in every field) survive exactly."""
        inst = make_random_qp(n=8, m=3, seed=4)
        Q, q = inst.objective.quadratic
        kkt = kkt_solve_qp(Q, q, inst.A, inst.b)
        cfg = resolve_config(inst, SolverConfig(schedule=nesterov(),
                                                case="explicit",
                                                max_iter=30))
        _, trace = run(inst, cfg, np.zeros(inst.dim),
                       np.zeros(inst.n_constraints), kkt=kkt)
        path = tmp_path / "run.trace.csv"
        write_trace_csv(path, trace)
        assert read_trace_csv(path) == trace

    def test_nan_fields_roundtrip(self, tmp_path, qp_testbed):
        """NaN energy in baseline records survives the text format."""
        _, trace = run_vanilla(qp_testbed, VanillaConfig(), 5,
                               np.zeros(qp_testbed.dim),
                               np.zeros(qp_testbed.n_constraints))
        path = tmp_path / "plain.trace.csv"
        write_trace_csv(path, trace)
        back = read_trace_csv(path)
        assert len(back) == len(trace)
        for got, want in zip(back, trace):
            for name in TRACE_FIELDS:
                g, w = getattr(got, name), getattr(want, name)
                assert g == w or (np.isnan(g) and np.isnan(w))

    def test_writer_format_bitwise(self, tmp_path):
        """Every float field is written as ``repr(float(v))`` -- a numpy
        scalar too, which would otherwise print as ``np.float64(...)`` --
        and reads back bitwise, NaN and ``-0.0`` included."""
        nan, f64 = float("nan"), np.float64
        trace = [TraceRecord(2, 1.0, f64(0.1), nan, -0.0, f64(-0.0),
                             f64(nan), 5e-324, f64(3.5)),
                 TraceRecord(3, f64(1.25), 1e300, f64(2.0) / 3, 0.0,
                             -f64(7.0), float("inf"), nan, f64(-1e-17))]
        path = tmp_path / "mixed.trace.csv"
        write_trace_csv(path, trace)
        want = ",".join(TRACE_FIELDS) + "\n" + "".join(
            ",".join([str(r.k)] + [repr(float(getattr(r, name)))
                                   for name in TRACE_FIELDS[1:]]) + "\n"
            for r in trace)
        assert path.read_bytes() == want.encode()

        def bits(tr):
            return [(r.k, np.array([getattr(r, name)
                                    for name in TRACE_FIELDS[1:]],
                                   dtype=float).view(np.uint64).tolist())
                    for r in tr]

        assert bits(read_trace_csv(path)) == bits(trace)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "weird.csv"
        path.write_text("k,t,residual\n1,1.0,0.5\n")
        with pytest.raises(ValueError, match="unexpected trace header"):
            read_trace_csv(path)


def _power_trace(p_feas, p_obj, k_max=300):
    out = []
    for k in range(6, k_max + 1):
        t = k / 3.0
        out.append(TraceRecord(k, t, 3.0 / t ** p_feas, 5.0 / t ** p_obj,
                               1.0 / t, 0.0, 0.0, 0.0,
                               t ** 2 * 3.0 / t ** p_feas))
    return out


class TestSummarizeTrace:
    """Summary rows condense a trace into tail slopes and witnesses."""

    def test_power_law_trace_recovers_slopes(self):
        """feas = C/t^2 and obj_res = C/t^3 give slopes -2 and -3."""
        trace = _power_trace(2, 3)
        out = summarize_trace(trace)
        assert_allclose(out["slope_feas"], -2.0, atol=1e-9)
        assert_allclose(out["slope_obj_res"], -3.0, atol=1e-9)
        assert out["r2_feas"] >= 1 - 1e-12
        assert_allclose(out["witness_t2_feas"], 1.0, atol=1e-12)
        k_mid = trace[len(trace) // 2].k
        assert_allclose(out["witness_t2_obj"], k_mid / 300.0, rtol=1e-12)

    def test_short_trace_yields_nans(self):
        out = summarize_trace(_power_trace(2, 3)[:1])
        assert all(np.isnan(v) for v in out.values())

    def test_constant_t_window_yields_nan_slopes(self):
        """Baseline traces (t_k = 1 throughout) admit no t-rate fit."""
        trace = [TraceRecord(k, 1.0, 2.0 ** -k, 2.0 ** -k, 0.1, 0.0,
                             float("nan"), 0.0, 2.0 ** -k)
                 for k in range(2, 100)]
        out = summarize_trace(trace)
        assert np.isnan(out["slope_feas"])
        assert np.isnan(out["r2_obj_res"])
        with pytest.raises(ValueError, match="growing t_k"):
            fit_rate(trace, "feas", (2, 99))


class TestRunExperiment:
    """End-to-end runs: outputs on disk, the reference sidecar, failure
    isolation."""

    def test_outputs_and_statuses(self, tmp_path, monkeypatch):
        """A two-solver run writes traces, a summary and a reference
        sidecar."""
        monkeypatch.setenv("AALM_OUTPUT_DIR", str(tmp_path))
        rows = run_experiment(parse_config(_qp_config()))
        assert [r["status"] for r in rows] == ["ok", "ok"]
        assert all(str(r["reference"]).startswith("kkt_tol=") for r in rows)
        assert all(r["iterations"] == 60 for r in rows)
        assert all(r["seed"] == 3 and r["rng"] == "pcg64" for r in rows)
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "accel.trace.csv").exists()
        assert (tmp_path / "plain.trace.csv").exists()
        assert len(list(tmp_path.glob("*.kkt.csv"))) == 1
        header = (tmp_path / "summary.csv").read_text().splitlines()[0]
        assert header.startswith("name,method,case,schedule")

    def test_rerun_is_bitwise_stable(self, tmp_path, monkeypatch):
        """Rerunning into the same directory reproduces traces exactly."""
        monkeypatch.setenv("AALM_OUTPUT_DIR", str(tmp_path))
        cfg = parse_config(_qp_config())
        run_experiment(cfg)
        first = (tmp_path / "accel.trace.csv").read_bytes()
        run_experiment(cfg)
        assert (tmp_path / "accel.trace.csv").read_bytes() == first
        assert len(list(tmp_path.glob("*.kkt.csv"))) == 1

    def test_stale_sidecar_never_read(self, tmp_path, monkeypatch):
        """A pair planted in the output directory, x*[0] one ulp off, under
        the old content-hashed name and the current one, is not reused: a
        rerun writes the same traces and summary as a fresh directory."""
        cfg = parse_config(_qp_config())
        monkeypatch.setenv("AALM_OUTPUT_DIR", str(tmp_path / "fresh"))
        run_experiment(cfg)
        monkeypatch.setenv("AALM_OUTPUT_DIR", str(tmp_path / "rerun"))
        run_experiment(cfg)
        inst = build_problem(cfg.problem, cfg.seed)
        name = inst.name
        ref = kkt_refine(inst)
        x = ref.x.copy()
        x[0] = np.nextafter(x[0], np.inf)
        for fname in (f"{name}-8914cf281c54defe.kkt.csv", f"{name}.kkt.csv"):
            save_kkt(tmp_path / "rerun" / fname,
                     KKTPoint(x=x, lam=ref.lam, kkt_tol=ref.kkt_tol))
        run_experiment(cfg)
        for fname in ("accel.trace.csv", "plain.trace.csv", "summary.csv"):
            assert ((tmp_path / "rerun" / fname).read_bytes()
                    == (tmp_path / "fresh" / fname).read_bytes()), fname

    def test_one_sidecar_before_any_trace(self, tmp_path, monkeypatch):
        """The run writes exactly one sidecar, <instance name>.kkt.csv, and
        it is on disk before the first trace file is written."""
        monkeypatch.setenv("AALM_OUTPUT_DIR", str(tmp_path))
        seen = []
        real = harness.write_trace_csv

        def spy(path, trace):
            seen.append(sorted(p.name for p in tmp_path.glob("*.kkt.csv")))
            return real(path, trace)

        monkeypatch.setattr(harness, "write_trace_csv", spy)
        run_experiment(parse_config(_qp_config()))
        sidecar = ["qp-n12-m4-pcg64-3.kkt.csv"]
        assert seen == [sidecar, sidecar]
        assert sorted(p.name for p in tmp_path.glob("*.kkt.csv")) == sidecar

    def test_summary_matches_trace_recompute(self, tmp_path, monkeypatch):
        """Slope and final-residual columns agree with the stored trace."""
        monkeypatch.setenv("AALM_OUTPUT_DIR", str(tmp_path))
        row = run_experiment(parse_config(_qp_config()))[0]
        trace = read_trace_csv(tmp_path / "accel.trace.csv")
        assert row["final_feas"] == trace[-1].feas
        assert row["final_obj_res"] == trace[-1].obj_res
        k_mid, k_last = trace[len(trace) // 2].k, trace[-1].k
        est = fit_rate(trace, "feas", (k_mid, k_last))
        assert row["slope_feas"] == est.slope
        assert row["r2_feas"] == est.r_squared

    def test_emit_gnuplot_script(self, tmp_path, monkeypatch):
        """The optional gnuplot script plots every solver by name."""
        monkeypatch.setenv("AALM_OUTPUT_DIR", str(tmp_path))
        run_experiment(parse_config(_qp_config(emit_gnuplot=True)))
        script = (tmp_path / "plots.gp").read_text()
        assert "multiplot" in script
        assert "accel.trace.csv" in script and "plain.trace.csv" in script

    def test_failing_solver_recorded_without_aborting(self, tmp_path,
                                                      monkeypatch):
        """A schedule that fails certification is reported per-row."""
        monkeypatch.setenv("AALM_OUTPUT_DIR", str(tmp_path))
        cfg = _qp_config()
        cfg["solvers"][0] = {"name": "bad", "method": "aalm",
                             "schedule": {"rule": "ac", "alpha": 2.0}}
        rows = run_experiment(parse_config(cfg))
        assert rows[0]["status"].startswith("failed: ScheduleError")
        assert rows[1]["status"] == "ok"
        assert not (tmp_path / "bad.trace.csv").exists()
        assert (tmp_path / "plain.trace.csv").exists()
        assert (tmp_path / "summary.csv").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["gamma", "delta", "beta"])
    def test_nonfinite_stepsize_in_config_file(self, tmp_path, monkeypatch,
                                               field, value):
        """JSON admits ``NaN`` and ``Infinity``; a solver entry that
        carries one in ``gamma``, ``delta`` or ``beta`` parses, and its
        run fails before its first step with a row naming the field, for
        the accelerated entry and for the baseline (whose ``delta`` is
        bounded by ``beta`` at parse time, so its ``delta`` case is the
        NaN one and an infinite ``delta`` comes with an infinite
        ``beta``)."""
        monkeypatch.setenv("AALM_OUTPUT_DIR", str(tmp_path))
        cfg = _qp_config()
        for entry in cfg["solvers"]:
            entry.update(case="implicit", **{field: value})
            if field == "delta" and entry["method"] == "vanilla":
                entry["beta"] = value
        rows = run_experiment(parse_config(_write_config(tmp_path, cfg)))
        for row in rows:
            assert row["status"].startswith(
                f"failed: ValueError: {field} must be"), row["status"]
        assert not list(tmp_path.glob("*.trace.csv"))

    def test_multiline_failure_stays_on_its_row(self, tmp_path,
                                                monkeypatch):
        """A solver failure whose message spans lines is written with its
        newlines as spaces, so summary.csv keeps one line per entry."""
        monkeypatch.setenv("AALM_OUTPUT_DIR", str(tmp_path))

        real = aalm_solver._run_resolved

        def broken(instance, config, *args, **kwargs):
            if config.schedule.rule != "nesterov":
                return real(instance, config, *args, **kwargs)
            raise RuntimeError("a\nb")

        monkeypatch.setattr(aalm_solver, "_run_resolved", broken)
        rows = run_experiment(parse_config(_qp_config()))
        status = "failed: RuntimeError: a b"
        assert [r["status"] for r in rows] == [status, "ok"]
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(lines) == 1 + len(rows)
        assert lines[1].endswith("," + status)

    @pytest.mark.parametrize("kind", ["qp", "lp-regression"])
    def test_reference_failure_keeps_message(self, kind, tmp_path,
                                             monkeypatch):
        """An infeasible manifest's reference failure names the exception
        and keeps its message, commas replaced, so summary.csv still
        splits into its columns with only the status column free-form."""
        rng = np.random.default_rng(0)
        A = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        files = {"A.csv": A, "b.csv": np.array([0.0, 1.0])}
        if kind == "qp":
            objective = {"kind": "qp", "Q": "Q.csv", "q": "q.csv"}
            files.update({"Q.csv": np.eye(4), "q.csv": rng.normal(size=4)})
            expected = "failed: InfeasibleConstraints: constraint residual"
        else:
            objective = {"kind": "lp-regression", "B": "B.csv",
                         "c": "c.csv", "p": 1.5}
            files.update({"B.csv": rng.normal(size=(8, 4)),
                          "c.csv": rng.normal(size=8)})
            expected = "failed: ReferenceNotConverged: KKT residual"
        for name, arr in files.items():
            _write_matrix(tmp_path / name, arr)
        (tmp_path / "inst.json").write_text(json.dumps(
            {"name": f"infeasible-{kind}", "objective": objective,
             "A": "A.csv", "b": "b.csv"}))
        monkeypatch.setenv("AALM_OUTPUT_DIR", str(tmp_path / "out"))
        cfg = _qp_config(problem={"manifest": str(tmp_path / "inst.json")},
                         iterations=5)
        cfg["solvers"] = [{"name": "plain", "method": "vanilla",
                           "case": "implicit"}]
        row = run_experiment(parse_config(cfg))[0]
        assert row["reference"].startswith(expected)
        assert "," not in row["reference"]
        if kind == "lp-regression":
            assert "(stationarity" in row["reference"]
            assert "; feasibility" in row["reference"]
        lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        header = lines[0].split(",")
        parsed = dict(zip(header, lines[1].split(",", len(header) - 1)))
        assert parsed["reference"] == row["reference"]
        assert parsed["status"] == row["status"]

    def test_each_entry_resolved_once(self, tmp_path, monkeypatch):
        """Every entry, the baseline's too, is resolved (and its schedule
        certified) once: for its summary row and its run alike."""
        monkeypatch.setenv("AALM_OUTPUT_DIR", str(tmp_path))
        calls = []
        real = aalm_solver.resolve_config

        def spy(instance, config):
            calls.append(config.schedule.rule)
            return real(instance, config)

        monkeypatch.setattr(aalm_solver, "resolve_config", spy)
        cfg = _qp_config()
        cfg["solvers"].append({"name": "cd", "method": "aalm",
                               "schedule": {"rule": "cd"}})
        rows = run_experiment(parse_config(cfg))
        assert [r["status"] for r in rows] == ["ok"] * 3
        assert calls == ["nesterov", "baseline", "chambolle-dossal"]

    def test_output_dir_from_config(self, tmp_path, monkeypatch):
        """Without the env override, files land in config.output_dir."""
        monkeypatch.delenv("AALM_OUTPUT_DIR", raising=False)
        out = tmp_path / "results-here"
        run_experiment(parse_config(_qp_config(output_dir=str(out))))
        assert (out / "summary.csv").exists()

    def test_each_trace_released_before_next_entry(self, tmp_path,
                                                   monkeypatch):
        """Over three entries (accelerated, vanilla, accelerated), every
        earlier entry's trace is dead, after ``gc.collect()``, when the
        next entry starts: an experiment holds one trace at a time."""

        class Trace(list):
            """A list that a weak reference can point at."""

        traces, alive = [], []

        def releasing(real):
            def wrapped(*args, **kwargs):
                gc.collect()
                alive.append(sum(ref() is not None for ref in traces))
                state, trace = real(*args, **kwargs)
                trace = Trace(trace)
                traces.append(weakref.ref(trace))
                return state, trace
            return wrapped

        monkeypatch.setattr(aalm_solver, "_run_resolved",
                            releasing(aalm_solver._run_resolved))
        monkeypatch.setattr(harness, "run_vanilla",
                            releasing(harness.run_vanilla))
        monkeypatch.setenv("AALM_OUTPUT_DIR", str(tmp_path))
        cfg = _qp_config()
        cfg["solvers"].append({"name": "cd", "method": "aalm",
                               "schedule": {"rule": "cd"}})
        rows = run_experiment(parse_config(cfg))
        assert [r["status"] for r in rows] == ["ok"] * 3
        assert [r["iterations"] for r in rows] == [60] * 3
        assert alive == [0, 0, 0]


class TestCli:
    """The aalm entry point, exercised in-process through main(argv)."""

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == "aalm 0.1.0"

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage: aalm" in capsys.readouterr().out

    def test_certify_schedule(self, capsys):
        """The growth constant printed for the 1/9-decrement rule."""
        assert main(["certify-schedule", "--rule", "cd", "--alpha", "10",
                     "--kmax", "20000"]) == 0
        out = capsys.readouterr().out
        assert "rule=cd kmax=20000 rho_hat=" in out
        assert "admissible eta range: [" in out
        rho_hat = float(out.split("rho_hat=")[1].split()[0])
        assert 0.2222 < rho_hat <= 2.0 / 9.0

    def test_certify_unknown_rule(self, capsys):
        assert main(["certify-schedule", "--rule", "fibonacci"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_certify_failing_schedule(self, capsys):
        """A schedule violating the growth condition exits with code 1."""
        assert main(["certify-schedule", "--rule", "ac",
                     "--alpha", "2.0"]) == 1
        assert "growth condition" in capsys.readouterr().err

    def test_certify_single_term_rejected(self, capsys):
        """--kmax 1 measures no growth ratio: exit 1 naming k_max, no
        rho_hat printed."""
        assert main(["certify-schedule", "--rule", "nesterov",
                     "--kmax", "1"]) == 1
        captured = capsys.readouterr()
        assert "k_max must be >= 2" in captured.err
        assert "rho_hat" not in captured.out

    def test_certify_zero_alpha_rejected(self, capsys):
        """--alpha 0 is certified as given (and rejected), not replaced
        by the default alpha."""
        assert main(["certify-schedule", "--rule", "cd",
                     "--alpha", "0"]) == 1
        captured = capsys.readouterr()
        assert "needs alpha > 2" in captured.err
        assert "rho_hat" not in captured.out

    def test_certify_nesterov_alpha_rejected(self, capsys):
        """--alpha on the Nesterov rule is a usage error (exit 1) naming
        alpha, with no rho_hat printed."""
        assert main(["certify-schedule", "--rule", "nesterov",
                     "--alpha", "3"]) == 1
        captured = capsys.readouterr()
        assert "nesterov takes no alpha" in captured.err
        assert "rho_hat" not in captured.out

    def test_run_config(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("AALM_OUTPUT_DIR", str(tmp_path / "out"))
        path = _write_config(tmp_path, _qp_config())
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "accel: ok" in out and "plain: ok" in out
        assert "(feas=" in out
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_run_emit_gnuplot_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("AALM_OUTPUT_DIR", str(tmp_path / "out"))
        path = _write_config(tmp_path, _qp_config())
        assert main(["run", str(path), "--emit-gnuplot"]) == 0
        assert (tmp_path / "out" / "plots.gp").exists()

    def test_run_unknown_case(self, tmp_path, capsys):
        """A config naming an unknown case exits with code 1 before any
        solver runs."""
        cfg = _qp_config()
        cfg["solvers"][1]["case"] = "semismooth"
        path = _write_config(tmp_path, cfg)
        assert main(["run", str(path)]) == 1
        assert "unknown case 'semismooth'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("max_inner", "7"), ("inner_tol", "1e-8"), ("delta", "1"),
        ("gamma", "2"), ("max_inner", 0), ("inner_tol", -1.0)])
    def test_run_bad_numeric_key(self, tmp_path, capsys, key, value):
        """A solver key of the wrong type is a config error (exit 1),
        caught before any solver runs.  The inner Newton's tolerance and
        budget are fixed, so inner_tol and max_inner are unknown keys
        whatever their value."""
        cfg = _qp_config()
        cfg["solvers"][0][key] = value
        path = _write_config(tmp_path, cfg)
        assert main(["run", str(path)]) == 1
        expected = (f"unknown key(s) ['{key}']"
                    if key in ("inner_tol", "max_inner") else f"{key} must be")
        assert f"error: {expected}" in capsys.readouterr().err

    @pytest.mark.parametrize("block, key, value", [
        ("stop", "feas_tol", "1e-4"), ("stop", "stat_tol", True),
        ("schedule", "alpha", "10"), ("schedule", "rho", "0.5"),
        ("schedule", "rho", None), ("scaling", "exponent", "0.5")])
    def test_run_bad_block_number(self, tmp_path, capsys, block, key,
                                  value):
        """A stop tolerance, schedule parameter or scaling exponent that is
        not a number is a config error (exit 1) at parse time."""
        cfg = _qp_config()
        entry = cfg["solvers"][0]
        entry.update(case="implicit", schedule={"rule": "cd"},
                     scaling={"form": "t-power"})
        entry.setdefault(block, {})[key] = value
        path = _write_config(tmp_path, cfg)
        assert main(["run", str(path)]) == 1
        assert f"error: {key} must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("where, value, message", [
        ("problem", 5, "problem must be a JSON object, got 5"),
        ("solvers", 5, "solvers must be a JSON list, got 5"),
        ("solvers", [5], "solver entry must be a JSON object, got 5"),
        ("schedule", 5, "schedule must be a JSON object, got 5"),
        ("stop", 5, "stop must be a JSON object, got 5"),
        ("scaling", None, "scaling must be a JSON object, got None"),
        ("oracle", 5, "manifest must be a JSON object, got 5"),
        ("oracle", None, "manifest must be a JSON object, got None")])
    def test_block_of_wrong_json_type(self, tmp_path, capsys, where, value,
                                      message):
        """A config block (top-level, or in the first solver entry) or an
        ``aalm oracle`` instance file (read as a manifest unless it is an
        object with a ``builtin`` key) of the wrong JSON type is a config
        error naming the block (exit 1), not a traceback."""
        if where == "oracle":
            path = tmp_path / "inst.json"
            path.write_text(json.dumps(value))
            argv = ["oracle", str(path)]
        else:
            cfg = _qp_config()
            if where in ("problem", "solvers"):
                cfg[where] = value
            else:
                cfg["solvers"][0][where] = value
            argv = ["run", str(_write_config(tmp_path, cfg))]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("key, value, message", [
        ("iterations", 2.7, "iterations must be an integer"),
        ("iterations", "5", "iterations must be an integer"),
        ("emit_gnuplot", "false", "emit_gnuplot must be true or false"),
        ("seed", 1.9, "seed must be an integer"),
        ("n", "6", "n must be an integer"),
        ("p", "1.5", "p must be a number")])
    def test_run_bad_top_level_or_problem_value(self, tmp_path, capsys, key,
                                                value, message):
        """A top-level or problem value of the wrong type is a config
        error (exit 1) at parse time, not a truncation, a silent cast or
        a traceback."""
        cfg = _qp_config()
        if key == "p":
            cfg["problem"] = {"builtin": "lp-regression", "p": value}
        elif key == "n":
            cfg["problem"]["n"] = value
        else:
            cfg[key] = value
        with pytest.raises(ConfigError, match=message):
            parse_config(cfg)
        path = _write_config(tmp_path, cfg)
        assert main(["run", str(path)]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_run_reference_budget_rejected(self, tmp_path, capsys):
        """The reference runs no solver, so it has no budget to set."""
        path = _write_config(tmp_path, _qp_config(reference_budget=300))
        assert main(["run", str(path)]) == 1
        assert "unknown key(s) ['reference_budget']" in capsys.readouterr().err

    def test_null_block_numbers_are_defaults(self):
        """``alpha: null`` is the rule's default, a null tolerance is
        unset."""
        cfg = _qp_config()
        cfg["solvers"][0].update(schedule={"rule": "cd", "alpha": None},
                                 stop={"feas_tol": None, "stat_tol": 1e-3})
        config = parse_config(cfg).solvers[0].config
        assert config.schedule.alpha == 10.0
        assert config.stop == StoppingRule(stat_tol=1e-3)

    def test_run_null_gamma(self, tmp_path, monkeypatch):
        """``gamma: null`` is the default stepsize, not a type error."""
        monkeypatch.setenv("AALM_OUTPUT_DIR", str(tmp_path / "out"))
        cfg = _qp_config()
        for block in cfg["solvers"]:
            block["gamma"] = None
        assert all(s.config.gamma is None
                   for s in parse_config(cfg).solvers)
        assert main(["run", str(_write_config(tmp_path, cfg))]) == 0

    def test_run_missing_config(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_run_reports_solver_failure(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("AALM_OUTPUT_DIR", str(tmp_path / "out"))
        cfg = _qp_config()
        cfg["solvers"] = [{"name": "bad", "method": "aalm",
                           "schedule": {"rule": "ac", "alpha": 2.0}}]
        path = _write_config(tmp_path, cfg)
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert "bad: failed" in captured.out
        assert "failed solvers: bad" in captured.err

    def test_oracle_builtin(self, tmp_path, capsys):
        """A problem block with a builtin key gets a reference sidecar."""
        block = {"builtin": "qp", "n": 6, "m": 2, "seed": 1}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(block))
        out = tmp_path / "ref.csv"
        assert main(["oracle", str(path), "--out", str(out)]) == 0
        assert "kkt_tol=" in capsys.readouterr().out
        kkt = load_kkt(out)
        assert kkt.kkt_tol <= 1e-8
        inst = build_problem(block)
        assert_allclose(inst.A @ kkt.x, inst.b, atol=1e-8)

    def test_oracle_default_output_path(self, tmp_path, capsys):
        block = {"builtin": "qp", "n": 6, "m": 2, "seed": 1}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(block))
        assert main(["oracle", str(path)]) == 0
        assert (tmp_path / "inst.kkt.csv").exists()

    def test_oracle_budget_rejected(self, tmp_path, capsys):
        """``aalm oracle`` has no ``--budget``: argparse rejects it, with
        the configuration exit code."""
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"builtin": "qp", "n": 6, "m": 2}))
        with pytest.raises(SystemExit) as exc:
            main(["oracle", str(path), "--budget", "5"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --budget" in capsys.readouterr().err
        assert not (tmp_path / "inst.kkt.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["--frobnicate"], "unrecognized arguments"),
        (["run"], "the following arguments are required: config"),
        (["certify-schedule"], "the following arguments are required"),
        (["certify-schedule", "--rule", "cd", "--kmax", "many"],
         "invalid int value"),
        (["solve"], "invalid choice"),
    ])
    def test_usage_error_exits_config(self, argv, message, capsys):
        """argparse's usage errors exit 1, not its own 2, which is the
        solver-failure code here."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"],
                                      ["oracle", "-h"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: aalm" in capsys.readouterr().out

    @pytest.mark.parametrize("objective, key", [
        ({"kind": "qp", "q": "q.csv"}, "'Q'"),
        ({"kind": "qp", "Q": "Q.csv"}, "'q'"),
        ({"kind": "lp-regression", "c": "c.csv", "p": 1.5}, "'B'"),
        ({"kind": "lp-regression", "B": "B.csv", "p": 1.5}, "'c'"),
        ({"kind": "lp-regression", "B": "B.csv", "c": "c.csv"}, "'p'"),
        ({"kind": "lp-regression", "B": "B.csv", "c": "c.csv", "p": "1.5"},
         "p must be a number"),
        ("qp", "objective must be a JSON object"),
        ({"kind": "qp", "Q": 5, "q": "q.csv"}, "Q must be a file path"),
    ])
    def test_oracle_manifest_objective_keys(self, tmp_path, capsys,
                                            objective, key):
        """A missing matrix or exponent key, an exponent that is not a
        number, an objective that is not an object or a matrix path that
        is not a string is a configuration error naming the key."""
        for fname, arr in (("Q.csv", np.eye(2)), ("q.csv", np.ones(2)),
                           ("B.csv", np.eye(2)), ("c.csv", np.ones(2)),
                           ("A.csv", np.ones((1, 2))), ("b.csv", np.ones(1))):
            _write_matrix(tmp_path / fname, arr)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"objective": objective, "A": "A.csv",
                                    "b": "b.csv"}))
        assert main(["oracle", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    def test_oracle_missing_file(self, tmp_path, capsys):
        assert main(["oracle", str(tmp_path / "absent.json")]) == 1
        assert "error:" in capsys.readouterr().err


# The six wrong-typed values the schema walk tries on every key, and the
# ones among them each kind of value admits (a name admits none).
WRONG_VALUES = (5, "x", [1], {}, None, True)
ADMITS = {"an integer": (5,), "a number": (5,), "a number or null": (5, None),
          "a number, 'critical', 'noncritical' or null": (5, None),
          "true or false": (True,), "a file path": ("x",),
          "a name of letters, digits, '.', '_' and '-'": ("x",), "a JSON list": ([1],),
          "a JSON object": ({},)}
# A valid objective block of each manifest objective kind.
OBJECTIVE_BLOCKS = {"qp": {"kind": "qp", "Q": "Q.csv", "q": "q.csv"},
                    "lp-regression": {"kind": "lp-regression", "B": "B.csv",
                                      "c": "c.csv", "p": 1.5}}


def _in_config(*where, problem=None):
    """A builder of a valid config (with scaling and stop blocks on its
    first entry) and its block at ``where``, for ``aalm run``."""
    def build():
        cfg = _qp_config()
        cfg["solvers"][0].update(case="implicit", scaling={"form": "t-power"},
                                 stop={})
        if problem is not None:
            cfg["problem"] = dict(problem)
        block = cfg
        for key in where:
            block = block[key]
        return cfg, block, "run"
    return build


def _in_manifest(kind, objective):
    """A builder of a valid ``kind`` manifest and its top-level block, or
    with ``objective`` its objective block, for ``aalm oracle``."""
    def build():
        doc = {"objective": dict(OBJECTIVE_BLOCKS[kind]), "A": "A.csv",
               "b": "b.csv"}
        return doc, doc["objective"] if objective else doc, "oracle"
    return build


# Every table of the schema, with a builder of a document holding a
# block it describes.
SCHEMA_BLOCKS = {
    "config": (harness.CONFIG, _in_config()),
    "aalm solver entry": (harness.AALM_ENTRY, _in_config("solvers", 0)),
    "vanilla solver entry": (harness.VANILLA_ENTRY,
                             _in_config("solvers", 1)),
    "schedule": (harness.SCHEDULE, _in_config("solvers", 0, "schedule")),
    "scaling": (harness.SCALING, _in_config("solvers", 0, "scaling")),
    "stop": (harness.STOP, _in_config("solvers", 0, "stop")),
    "manifest problem": (harness.MANIFEST_PROBLEM,
                         _in_config("problem",
                                    problem={"manifest": "inst.json"})),
    **{f"{name} problem": (table,
                           _in_config("problem", problem={"builtin": name}))
       for name, table in harness.BUILTIN_PROBLEMS.items()},
    "manifest": (harness.MANIFEST, _in_manifest("qp", objective=False)),
    **{f"{kind} objective": (table, _in_manifest(kind, objective=True))
       for kind, table in harness.OBJECTIVES.items()},
}


class TestSchema:
    """Every key of every schema table rejects the values of the wrong
    kind at parse time, with a config error naming it."""

    @pytest.mark.parametrize("block, key", [
        (block, key) for block, (table, _) in SCHEMA_BLOCKS.items()
        for key in table])
    def test_wrong_kind_rejected(self, tmp_path, capsys, block, key):
        """Each wrong-typed value is a ConfigError from the parser and
        exit 1 with ``error:`` from the CLI, not a traceback, a run-time
        failure or a silent acceptance."""
        table, build = SCHEMA_BLOCKS[block]
        kind = table[key][0]
        admitted = () if kind.choice else ADMITS[kind.what]
        expected = ("unknown {what} {value!r}" if kind.choice
                    else "{key} must be {what}, got {value!r}")
        parse = {"run": parse_config, "oracle": load_instance}
        for value in WRONG_VALUES:
            if value in admitted:
                continue
            doc, target, command = build()
            target[key] = value
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(doc))
            message = expected.format(what=kind.what, key=key, value=value)
            with pytest.raises(ConfigError) as exc:
                parse[command](path)
            assert str(exc.value).startswith(message), (value, exc.value)
            assert main([command, str(path)]) == 1
            assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_builtin_defaults_are_the_factories(self):
        """Each builtin table holds its factory's keywords and defaults,
        besides the seed, which defaults to the master seed's stream."""
        for name, table in harness.BUILTIN_PROBLEMS.items():
            params = inspect.signature(harness.FACTORIES[name]).parameters
            assert set(table) - {"builtin"} == set(params) - {"name"}
            for key, (_, default) in table.items():
                if key not in ("builtin", "seed"):
                    assert default == params[key].default, (name, key)

    def test_builtin_keys_in_factory_order(self):
        """A builtin table lists ``builtin`` and ``seed``, then its
        factory's other keywords in signature order, typed by their
        defaults."""
        for name, table in harness.BUILTIN_PROBLEMS.items():
            params = inspect.signature(harness.FACTORIES[name]).parameters
            assert list(table) == ["builtin", "seed"] + [
                key for key in params if key not in ("seed", "name")]
            for key, (kind, default) in table.items():
                if key not in ("builtin", "seed"):
                    assert kind is (harness.INT if isinstance(default, int)
                                    else harness.NUMBER), (name, key)

    @pytest.mark.parametrize("problem, message", [
        ({"builtin": "qp", "n": 0}, "n must be >= 1, got 0"),
        ({"builtin": "qp", "cond": -1.0}, "cond must be positive, got -1.0"),
        ({"builtin": "qp", "cond": 0.0}, "cond must be positive, got 0.0"),
        ({"builtin": "lp-regression", "d": 0}, "d must be >= 1, got 0"),
        ({"builtin": "lp-regression", "n": -2}, "n must be >= 1, got -2"),
        ({"builtin": "qp", "m": -1}, "m must be >= 0, got -1"),
        ({"builtin": "lp-regression", "n_constraints": -1},
         "n_constraints must be >= 0, got -1"),
        ({"builtin": "qp", "seed": -3}, "seed must be >= 0, got -3"),
        ({"builtin": "ring-logistic", "seed": -3},
         "seed must be >= 0, got -3")])
    def test_builtin_size_rejected_by_name(self, tmp_path, monkeypatch,
                                           capsys, problem, message):
        """A random family's size, condition number or seed out of range
        is a config error (exit 1) naming the key, raised as the instance
        is built and before any solver or reference runs."""
        monkeypatch.setenv("AALM_OUTPUT_DIR", str(tmp_path / "out"))
        path = _write_config(tmp_path, _qp_config(problem=problem))
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list((tmp_path / "out").iterdir()) == []

    def test_negative_instance_seed_names_master_seed(self, tmp_path,
                                                      monkeypatch, capsys):
        """A master seed below ``-INSTANCE_SEED_OFFSET`` gives a problem
        without a seed of its own a negative instance seed: a config error
        (exit 1) naming the master seed, before anything runs."""
        monkeypatch.setenv("AALM_OUTPUT_DIR", str(tmp_path / "out"))
        path = _write_config(tmp_path, _qp_config(
            problem={"builtin": "qp", "n": 12, "m": 4}, seed=-2000))
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: seed must be >= -1000 for a problem without a seed, "
            "got -2000\n")
        assert list((tmp_path / "out").iterdir()) == []
        with pytest.raises(ConfigError, match="^seed must be >= -1000"):
            build_problem({"builtin": "qp"}, master_seed=-2000)

    @pytest.mark.parametrize("problem, message", [
        ({"builtin": "qp", "d": 99, "rho_reg": 7.0},
         "unknown key(s) ['d', 'rho_reg'] in problem"),
        ({"manifest": "inst.json", "builtin": "qp"},
         "unknown key(s) ['manifest'] in problem"),
        ({"n": 8}, "unknown key(s) ['n'] in problem"),
        ({}, "problem needs 'manifest'")])
    def test_problem_keys_of_its_family_only(self, tmp_path, capsys,
                                             problem, message):
        """A problem block takes the keys of its own builtin family only;
        a block naming no builtin is a manifest problem."""
        path = _write_config(tmp_path, _qp_config(problem=problem))
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("name", ["a,b", "x/y", "a b", ""])
    def test_name_of_safe_characters_only(self, tmp_path, capsys, name):
        """A solver or manifest name is a CSV field and a file name: a
        comma, a path separator, a space or nothing is a parse-time config
        error naming the block (exit 1), not a shifted summary row or a
        run-time failure."""
        what = "a name of letters, digits, '.', '_' and '-'"
        cfg = _qp_config()
        cfg["solvers"][0]["name"] = name
        assert main(["run", str(_write_config(tmp_path, cfg))]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: name must be {what}, got {name!r} (solver entry)")
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"name": name, "A": "A.csv", "b": "b.csv",
                                    "objective": OBJECTIVE_BLOCKS["qp"]}))
        with pytest.raises(ConfigError, match=re.escape(
                f"name must be {what}, got {name!r} (manifest)")):
            load_instance(path)

    def test_composite_case_rejected(self, tmp_path, capsys):
        """The paper's two cases are the only ones: 'composite' is an
        unknown case at parse time."""
        cfg = _qp_config()
        cfg["solvers"][0]["case"] = "composite"
        assert main(["run", str(_write_config(tmp_path, cfg))]) == 1
        assert ("error: unknown case 'composite' (solver 'accel')"
                in capsys.readouterr().err)

    def test_oracle_reads_instance_once(self, tmp_path, monkeypatch, capsys):
        """``aalm oracle`` reads and parses a manifest file once."""
        for fname, arr in (("Q.csv", np.eye(2)), ("q.csv", np.ones(2)),
                           ("A.csv", np.ones((1, 2))), ("b.csv", np.ones(1))):
            _write_matrix(tmp_path / fname, arr)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"objective": OBJECTIVE_BLOCKS["qp"],
                                    "A": "A.csv", "b": "b.csv"}))
        loads = []
        monkeypatch.setattr(harness.json, "load",
                            lambda f: loads.append(f.name) or json.loads(
                                f.read()))
        assert main(["oracle", str(path)]) == 0
        assert loads == [str(path)]
        assert "inst: kkt_tol=" in capsys.readouterr().out

    def test_missing_matrix_file_rejected(self, tmp_path, capsys):
        """A manifest naming a matrix file that does not exist is a config
        error (exit 1), not a traceback."""
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"objective": OBJECTIVE_BLOCKS["qp"],
                                    "A": "A.csv", "b": "b.csv"}))
        assert main(["oracle", str(path)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: cannot read matrix")
