"""CLI plumbing: spec resolution, CSV output, profiles, exit codes."""

import argparse
import csv
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from qtgrad import benchcli, quadprob
from qtgrad.benchcli import (
    AGG_COLUMNS,
    PRESETS,
    RAW_COLUMNS,
    ROW_KEY,
    TRACE_COLUMNS,
    UNC_METHODS,
    ExperimentSpec,
    build_profile,
    main,
    parse_config,
    performance_profile,
    resolve_spec,
    run_experiment,
)
from qtgrad.errors import InvalidInput, InvalidSpec
from qtgrad.quadsolver import (VERIFY_METHODS, QuadSolverConfig, solve_bb,
                               solve_new, verify_3d_termination)
from qtgrad.report import TraceRecord
from qtgrad.testfuns import builtin_suite
from qtgrad.uncsolver import UncSolverConfig, solve


def make_args(**over):
    base = dict(methods=None, set=None, n=None, kappa=None, eps=None,
                seeds=None, tau1=None, gamma=None, preset=None, out=None,
                trace=None, zero_times=None, config=None)
    base.update(over)
    return argparse.Namespace(**base)


def spec_for(tmp_path, **over):
    kw = dict(experiment="quadbench", methods=("bb", "new"), sets=(4,),
              ns=(20,), kappas=(100.0,), epss=(1e-8,), seeds=2,
              tau1=None, gamma=None, out=str(tmp_path / "res"),
              zero_times=True)
    kw.update(over)
    return ExperimentSpec(**kw)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------- resolve


def test_defaults_fill_the_spec():
    spec = resolve_spec("quadbench", make_args())
    assert spec.methods == ("bb", "new")
    assert spec.sets == (4,)
    assert spec.ns == (100,)
    assert spec.kappas == (1e4,)
    assert spec.epss == (1e-9,)
    assert spec.seeds == 10
    assert spec.tau1 is None and spec.gamma is None
    assert spec.out == "results"


def test_preset_sets_tau_and_gamma():
    spec = resolve_spec("quadbench", make_args(preset="table3-set5-new"))
    assert (spec.tau1, spec.gamma) == PRESETS["table3-set5-new"]
    with pytest.raises(InvalidSpec):
        resolve_spec("quadbench", make_args(preset="nope"))


def test_config_file_between_preset_and_flags(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("# comment line\n"
                   "preset=table3-set1-new\n"
                   "tau1=0.55   # overrides the preset value\n"
                   "set=1,2\n"
                   "seeds=3\n")
    spec = resolve_spec("quadbench", make_args(config=str(cfg)))
    assert spec.tau1 == 0.55
    assert spec.gamma == 1.0          # from the preset
    assert spec.sets == (1, 2)
    assert spec.seeds == 3
    # explicit flags beat the file
    spec = resolve_spec("quadbench",
                        make_args(config=str(cfg), tau1=0.7, seeds=5))
    assert spec.tau1 == 0.7
    assert spec.seeds == 5


def test_config_rejects_unknown_keys_and_bad_lines(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("frobnicate=1\n")
    with pytest.raises(InvalidSpec):
        resolve_spec("quadbench", make_args(config=str(bad)))
    nokv = tmp_path / "nokv.cfg"
    nokv.write_text("just words\n")
    with pytest.raises(InvalidSpec):
        parse_config(str(nokv))


def test_config_for_wrong_verb_is_rejected(tmp_path):
    cfg = tmp_path / "v.cfg"
    cfg.write_text("experiment=uncbench\n")
    with pytest.raises(InvalidSpec):
        resolve_spec("quadbench", make_args(config=str(cfg)))


def test_print_config_roundtrips(tmp_path, capsys):
    assert main(["quadbench", "--print-config",
                 "--preset", "table3-set3-new", "--seeds", "4"]) == 0
    text = capsys.readouterr().out
    cfg = tmp_path / "printed.cfg"
    cfg.write_text(text)
    spec = resolve_spec("quadbench", make_args(config=str(cfg)))
    direct = resolve_spec("quadbench",
                          make_args(preset="table3-set3-new", seeds=4))
    assert spec == direct


def test_print_config_roundtrips_a_hash_in_the_value(tmp_path, capsys):
    # the first '#' used to start a comment, so out=run#1 read back as run
    out = str(tmp_path / "run#1")
    assert main(["quadbench", "--print-config", "--out", out]) == 0
    cfg = tmp_path / "printed.cfg"
    cfg.write_text(capsys.readouterr().out + "#trailing comment\n")
    spec = resolve_spec("quadbench", make_args(config=str(cfg)))
    assert spec.out == out
    assert spec == resolve_spec("quadbench", make_args(out=out))
    # a comment, a line break or end whitespace was printed as it is and
    # read back as something else; such an out is now an error
    for bad in ("run #1", " run", "run\t", "run\nseeds=3", "a\rb"):
        assert main(["quadbench", "--print-config", "--out", bad]) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert "cannot write out" in printed.err


@pytest.mark.parametrize("kw", [
    dict(experiment="mystery"),
    dict(methods=()),
    dict(methods=("alg1",)),          # uncbench method on quadbench
    dict(seeds=0),
    dict(seeds=2.5),                  # range() raised TypeError in a cell
    dict(seeds=True),
    dict(sets=(9,)),
    dict(tau1=0.0),
    dict(gamma=0.5),
    dict(epss=(0.0,)),
    dict(epss=(-1.0,)),
    dict(epss=(1e-8, math.nan)),
    dict(experiment="uncbench", methods=("alg1",), epss=(math.inf,)),
    # grid combinations quadprob.generate rejects, caught before any cell
    dict(sets=(1, 3), ns=(1000, 1001), kappas=(1e6,)),
    dict(sets=(3,), ns=(20,), kappas=(50.0,)),
    dict(sets=(2,), ns=(20, 21)),
    dict(ns=(2,)),
    dict(kappas=(100.0, 1.0)),
    dict(kappas=(1e308,)),            # its Hessian, 2 kappa, overflows
    dict(gamma=math.nan),
    dict(gamma=math.inf),
    # a repeated value ran its cells twice, under one row key
    dict(methods=("bb", "bb")),
    dict(sets=(4, 4)),
    dict(ns=(20, 40, 20)),
    dict(kappas=(100.0, 1e2)),
    dict(epss=(1e-8, 1e-8)),
])
def test_spec_validation_rejects(tmp_path, kw):
    with pytest.raises(InvalidSpec):
        spec_for(tmp_path, **kw)


UNC_SPEC = dict(experiment="uncbench", methods=("alg1",), sets=(0,),
                ns=(0,), kappas=(0.0,), epss=(1e-6,), seeds=1)
V3D_SPEC = dict(experiment="verify3d", methods=("day3d",), sets=(0,),
                ns=(3,), kappas=(100.0,), epss=(0.0,), seeds=2)


@pytest.mark.parametrize("base, kw", [
    (UNC_SPEC, dict(kappas=(7.0,))),
    (UNC_SPEC, dict(kappas=(0.0, 7.0))),
    (UNC_SPEC, dict(seeds=2)),
    (UNC_SPEC, dict(sets=(2,))),
    (UNC_SPEC, dict(ns=(50,))),
    (V3D_SPEC, dict(epss=(5.0,))),
    (V3D_SPEC, dict(epss=(0.0, 1e-6))),
    (V3D_SPEC, dict(sets=(2,))),
    (V3D_SPEC, dict(ns=(50,))),
    (V3D_SPEC, dict(tau1=0.3)),
    (V3D_SPEC, dict(gamma=2.0)),
], ids=["unc-kappa", "unc-kappas", "unc-seeds", "unc-set", "unc-n",
        "v3d-eps", "v3d-epss", "v3d-set", "v3d-n", "v3d-tau1", "v3d-gamma"])
def test_spec_rejects_values_the_verb_ignores(tmp_path, base, kw):
    spec_for(tmp_path, **base)
    with pytest.raises(InvalidSpec):
        spec_for(tmp_path, **{**base, **kw})


@pytest.mark.parametrize("verb", ["verify3d", "quadbench", "uncbench"])
def test_default_config_roundtrips_for_every_verb(tmp_path, capsys, verb):
    assert main([verb, "--print-config"]) == 0
    cfg = tmp_path / "printed.cfg"
    cfg.write_text(capsys.readouterr().out)
    spec = resolve_spec(verb, make_args(config=str(cfg)))
    assert spec == resolve_spec(verb, make_args())


def test_placeholder_set_allowed_off_quadbench(tmp_path):
    spec = spec_for(tmp_path, experiment="verify3d", methods=("day3d",),
                    sets=(0,), ns=(3,), epss=(0.0,))
    assert spec.sets == (0,)


# ------------------------------------------------------------ experiments


def test_quadbench_writes_sorted_reproducible_csvs(tmp_path):
    spec = spec_for(tmp_path)
    runs_path, agg_path = run_experiment(spec)
    header, rows = read_csv(runs_path)
    assert header == list(RAW_COLUMNS)
    assert len(rows) == 4            # 2 methods x 2 seeds
    keys = [tuple(r[:6]) for r in rows]
    assert keys == sorted(keys)
    status_col = header.index("status")
    time_col = header.index("time_ms")
    assert all(r[status_col] == "ok" for r in rows)
    assert all(float(r[time_col]) == 0.0 for r in rows)

    agg_header, agg_rows = read_csv(agg_path)
    assert agg_header == list(AGG_COLUMNS)
    assert len(agg_rows) == 2        # one cell per method
    iters_col = header.index("iters")
    mean_col = agg_header.index("iters_mean")
    for arow in agg_rows:
        method = arow[0]
        raw = [float(r[iters_col]) for r in rows if r[0] == method]
        assert float(arow[mean_col]) == pytest.approx(
            sum(raw) / len(raw), rel=1e-9)
        assert arow[agg_header.index("runs")] == "2"
        assert arow[agg_header.index("solved")] == "2"

    paths = (Path(runs_path), Path(agg_path))
    before = tuple(path.read_bytes() for path in paths)
    run_experiment(spec)
    after = tuple(path.read_bytes() for path in paths)
    assert before == after


def _direct_report(row):
    """The report of a row's run from a fresh problem, start and config."""
    method, eps, seed = row["method"], row["eps"], row["seed"]
    if method in VERIFY_METHODS:
        return verify_3d_termination(row["kappa"], method, seed)
    if method in UNC_METHODS:
        (f,) = [f for f in builtin_suite() if f.name == row["set"]]
        return solve(f, cfg=UncSolverConfig(
            eps_inf=eps, use_new_step=method == "alg1"))
    p = quadprob.generate(int(row["set"]), row["n"], row["kappa"],
                          benchcli.PROBLEM_SEED)
    cfg = QuadSolverConfig(tau1=0.9, gamma=1.3, eps=eps,
                           use_new_step=method != "bbq")
    solver = solve_bb if method == "bb" else solve_new
    return solver(p, quadprob.starting_point(p, seed), cfg)


def test_grid_rows_match_direct_solves(tmp_path, monkeypatch):
    rows = []
    real = benchcli._run_cell

    def keep(*cell):
        out = real(*cell)
        rows.extend(out[0])
        return out

    monkeypatch.setattr(benchcli, "_run_cell", keep)
    monkeypatch.setattr(benchcli, "PROBLEM_SEED", 1)
    run_experiment(spec_for(tmp_path, methods=("bb", "new", "bbq"),
                            sets=(1, 4), epss=(1e-6, 1e-8), tau1=0.9,
                            gamma=1.3))
    run_experiment(spec_for(tmp_path, **{**UNC_SPEC,
                                         "methods": UNC_METHODS}))
    run_experiment(spec_for(tmp_path, **{**V3D_SPEC,
                                         "kappas": (100.0, 1e4)}))
    assert len(rows) == 3 * 2 * 2 * 2 + 2 * len(builtin_suite()) + 2 * 2
    for row in rows:
        rep = _direct_report(row)
        assert (row["iters"], row["status"], row["final_gnorm"].hex(),
                row["final_f"].hex()) == (
            rep.iterations, rep.status, rep.final_gnorm.hex(),
            rep.final_f.hex()), row


def test_each_block_of_cells_generates_its_problem_once(tmp_path,
                                                        monkeypatch):
    calls = []
    real = benchcli.quadprob.generate

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(benchcli.quadprob, "generate", counting)
    spec = spec_for(tmp_path, sets=(1, 4), kappas=(100.0, 1e3),
                    epss=(1e-6, 1e-8), seeds=3)
    run_experiment(spec)
    blocks = [(s, 20, k, benchcli.PROBLEM_SEED)
              for _ in spec.methods for s in spec.sets for k in spec.kappas]
    assert calls == blocks


def test_verify3d_rows_use_placeholders(tmp_path):
    spec = spec_for(tmp_path, experiment="verify3d",
                    methods=("day3d", "bb1"), sets=(0,), ns=(3,),
                    epss=(0.0,), seeds=2)
    runs_path, _ = run_experiment(spec)
    header, rows = read_csv(runs_path)
    assert len(rows) == 4
    gcol = header.index("final_gnorm")
    for r in rows:
        assert r[header.index("set")] == "0"
        assert r[header.index("n")] == "3"
        assert float(r[header.index("eps")]) == 0.0
    day = [float(r[gcol]) for r in rows if r[0] == "day3d"]
    ctl = [float(r[gcol]) for r in rows if r[0] == "bb1"]
    assert max(day) <= 1e-6
    assert min(ctl) > 1e-4


def test_uncbench_rows_name_the_functions(tmp_path):
    spec = spec_for(tmp_path, experiment="uncbench", methods=("alg1",),
                    sets=(0,), ns=(0,), kappas=(0.0,), epss=(1e-6,),
                    seeds=1)
    runs_path, _ = run_experiment(spec)
    header, rows = read_csv(runs_path)
    suite = {f.name: f.x0.size for f in builtin_suite()}
    assert len(rows) == len(suite)
    for r in rows:
        name = r[header.index("set")]
        assert name in suite
        assert int(r[header.index("n")]) == suite[name]
        assert float(r[header.index("kappa")]) == 0.0


def test_trace_file_structure(tmp_path):
    spec = spec_for(tmp_path, methods=("new",), seeds=1, trace=True)
    run_experiment(spec)
    header, rows = read_csv(str(tmp_path / "res") + "_trace.csv")
    assert header == list(TRACE_COLUMNS)
    # a trace row is the run's key plus one TraceRecord, field by field,
    # so a record field missing here would drop out of the file unseen
    record = [f.name for f in fields(TraceRecord)]
    assert sorted(TRACE_COLUMNS) == sorted(list(ROW_KEY) + record)
    assert len(set(TRACE_COLUMNS)) == len(TRACE_COLUMNS)
    ks = [int(r[header.index("k")]) for r in rows]
    assert ks == list(range(1, len(rows) + 1))
    assert rows[0][header.index("branch")] == "sd"


# ---------------------------------------------------------------- profile


def mkrow(method, prob, iters, status="ok"):
    return {"method": method, "set": "4", "n": 10, "kappa": 100.0,
            "eps": 1e-8, "seed": prob, "iters": iters, "nfe": iters,
            "ngrad": iters, "final_gnorm": 0.0, "status": status,
            "time_ms": float(iters), "final_f": 0.0}


def test_profile_textbook_example():
    rows = [mkrow("A", p, it) for p, it in enumerate((1, 2, 4))]
    rows += [mkrow("B", p, it) for p, it in enumerate((2, 2, 2))]
    curves = {c.method: c for c in build_profile(rows, "iter")}
    assert curves["A"].rhos == (1.0, 2.0)
    assert curves["A"].fractions == pytest.approx((2 / 3, 1.0))
    assert curves["B"].fractions == pytest.approx((2 / 3, 1.0))


def test_profile_single_method_is_flat_one():
    rows = [mkrow("A", p, it) for p, it in enumerate((3, 14, 15))]
    (curve,) = build_profile(rows, "iter")
    assert curve.rhos == (1.0,)
    assert curve.fractions == (1.0,)
    assert curve.solved == curve.total == 3


def test_profile_strict_dominance():
    rows = [mkrow("A", 0, 1), mkrow("A", 1, 1),
            mkrow("B", 0, 2), mkrow("B", 1, 3)]
    curves = {c.method: c for c in build_profile(rows, "iter")}
    assert curves["A"].rhos == (1.0, 2.0, 3.0)
    assert curves["A"].fractions == (1.0, 1.0, 1.0)
    assert curves["B"].fractions == (0.0, 0.5, 1.0)


def test_profile_unsolved_stays_in_denominator():
    rows = [mkrow("A", 0, 5), mkrow("A", 1, 5, status="maxiter"),
            mkrow("B", 0, 5), mkrow("B", 1, 7)]
    curves = {c.method: c for c in build_profile(rows, "iter")}
    assert curves["A"].solved == 1 and curves["A"].total == 2
    assert curves["A"].fractions[-1] == 0.5
    assert curves["B"].fractions[-1] == 1.0


def test_profile_rejects_bad_input():
    with pytest.raises(InvalidInput):
        build_profile([mkrow("A", 0, 1)], "speed")
    with pytest.raises(InvalidInput):
        build_profile([], "iter")
    with pytest.raises(InvalidInput):
        build_profile([mkrow("A", 0, 1), mkrow("A", 0, 2)], "iter")
    with pytest.raises(InvalidInput):
        # problem 1 lacks method B
        build_profile([mkrow("A", 0, 1), mkrow("B", 0, 1),
                       mkrow("A", 1, 1)], "iter")


def test_profile_from_csv_roundtrip(tmp_path):
    spec = spec_for(tmp_path)
    runs_path, _ = run_experiment(spec)
    out = tmp_path / "prof.csv"
    curves = performance_profile(runs_path, "iter", str(out))
    header, rows = read_csv(str(out))
    assert header == ["method", "rho", "fraction"]
    assert {r[0] for r in rows} == {c.method for c in curves}
    for c in curves:
        assert c.total == 2
        assert c.fractions[-1] == 1.0
    # solved counts must match the raw status column
    rheader, rrows = read_csv(runs_path)
    ok = sum(1 for r in rrows if r[rheader.index("status")] == "ok")
    assert sum(c.solved for c in curves) == ok


def test_profile_rejects_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("method,iters\nA,3\n")
    with pytest.raises(InvalidInput):
        performance_profile(str(bad), "iter")


@pytest.mark.parametrize("cell, value", [
    ("iters", "abc"),       # not a number
    ("nfe", None),          # truncated row
    ("iters", "nan"),       # nan in an integer column
    ("time_ms", "nan"),     # a time no profile can rank
    ("time_ms", "inf"),
    ("time_ms", "-1.0"),
    # a negative count made a performance ratio below 1
    ("iters", "-5"),
    ("nfe", "-1"),
    ("ngrad", "-1"),
    ("n", "-100"),
    ("seed", "-1"),
])
def test_main_rejects_bad_cells_in_runs_csv(tmp_path, capsys, cell, value):
    runs_path, _ = run_experiment(spec_for(tmp_path))
    with open(runs_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, row = rows[0], rows[2]
    i = header.index(cell)
    rows[2] = row[:i] if value is None else row[:i] + [value] + row[i + 1:]
    with open(runs_path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert main(["profile", runs_path]) == 2
    err = capsys.readouterr().err
    assert f"{runs_path}:3: column {cell}" in err


# ------------------------------------------------------------------- main


def test_main_profile_writes_curves(tmp_path, capsys):
    runs_path, _ = run_experiment(spec_for(tmp_path))
    out = tmp_path / "prof.csv"
    capsys.readouterr()
    assert main(["profile", runs_path, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["bb: solved 2/2", "new: solved 2/2", f"wrote {out}"]
    header, rows = read_csv(str(out))
    assert header == ["method", "rho", "fraction"]
    assert {r[0] for r in rows} == {"bb", "new"}


def test_main_runs_quadbench(tmp_path, capsys):
    out = str(tmp_path / "cli")
    code = main(["quadbench", "--set", "4", "--n", "20", "--kappa", "100",
                 "--eps", "1e-8", "--seeds", "1", "--methods", "new",
                 "--zero-times", "--out", out])
    assert code == 0
    assert "cli_runs.csv" in capsys.readouterr().out
    header, rows = read_csv(out + "_runs.csv")
    assert len(rows) == 1


def test_main_verify3d_overflowing_kappa_writes_nonfinite_rows(tmp_path,
                                                               capsys):
    # at kappa 1e200 this exited 1 with a traceback
    out = str(tmp_path / "v3d")
    code = main(["verify3d", "--kappa", "1e200", "--seeds", "1",
                 "--zero-times", "--out", out])
    assert code == 0
    header, rows = read_csv(out + "_runs.csv")
    assert len(rows) == 4
    assert all(r[header.index("status")] == "nonfinite" for r in rows)
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["verify3d", "--kappa", "1e308", "--seeds", "2"],
    ["quadbench", "--set", "4", "--n", "10", "--kappa", "8e307", "--seeds",
     "2", "--methods", "bb,new"],
    ["quadbench", "--set", "1", "--n", "10", "--kappa", "1e150", "--seeds",
     "2", "--methods", "bb,new"],
], ids=["verify3d-gradient", "quadbench-gradient", "quadbench-gag"])
def test_main_overflowing_kappa_writes_nonfinite_rows_without_warnings(
        tmp_path, capsys, argv):
    # the rows were right, but numpy warned of the overflow in the
    # starting gradient, the SD step's g'Ag or the final value
    out = str(tmp_path / "big")
    assert main(argv + ["--zero-times", "--out", out]) == 0
    header, rows = read_csv(out + "_runs.csv")
    assert len(rows) == (8 if argv[0] == "verify3d" else 4)
    assert all(r[header.index("status")] == "nonfinite" for r in rows)
    capsys.readouterr()


def test_importing_benchcli_loads_no_process_pool():
    # the grid runs in the calling process, which need not pay for a pool
    mods = subprocess.run(
        [sys.executable, "-c",
         "import sys, qtgrad.benchcli; print(' '.join(sys.modules))"],
        env=dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(benchcli.__file__))),
        check=True, capture_output=True, text=True).stdout.split()
    assert "qtgrad.benchcli" in mods
    assert "multiprocessing" not in mods
    assert "concurrent.futures" not in mods


def test_main_exit_codes(tmp_path, capsys):
    assert main(["quadbench", "--set", "9"]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["uncbench", "--eps", "nan"]) == 2
    err = capsys.readouterr().err
    assert "eps must lie" in err
    assert "eps_inf" not in err
    assert main(["profile", str(tmp_path / "missing.csv")]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["uncbench", "--methods", "alg1", "--eps", "1e-6", "--seeds", "2",
     "--kappa", "7"],
    ["uncbench", "--seeds", "2"],
    ["uncbench", "--kappa", "7"],
    ["verify3d", "--eps", "5"],
    ["verify3d", "--preset", "table3-set1-new"],
    # grids with a problem quadprob.generate rejects: these used to fail
    # only at that problem's first cell, after every cell before it ran
    ["quadbench", "--set", "1,3", "--n", "1000,1001", "--kappa", "1e6",
     "--methods", "bb,new", "--seeds", "20"],
    ["quadbench", "--set", "3", "--kappa", "50"],
    ["quadbench", "--n", "2"],
    # a non-finite gamma ran the grid and wrote its CSVs with exit 0
    ["quadbench", "--set", "1", "--n", "100", "--kappa", "1e2", "--eps",
     "1e-6", "--methods", "new", "--seeds", "1", "--gamma", "nan"],
    ["quadbench", "--gamma", "inf"],
    # verify3d checked its kappas only inside its cells, after the runs
    # of every kappa before the bad one
    ["verify3d", "--kappa", "100,1.0"],
    ["verify3d", "--kappa", "nan"],
    # a repeated grid value ran its cells twice and wrote duplicate rows,
    # which profile then rejected
    ["quadbench", "--set", "4,4", "--n", "20", "--kappa", "100", "--seeds",
     "2", "--methods", "bb,bb", "--zero-times"],
    ["quadbench", "--kappa", "100,1e2"],
])
def test_main_rejects_flags_the_verb_ignores(tmp_path, capsys, monkeypatch,
                                             argv):
    def no_cells(*cell):
        raise AssertionError("a cell ran before the spec was rejected")

    monkeypatch.setattr(benchcli, "_run_cell", no_cells)
    out = tmp_path / "ignored"
    assert main(argv + ["--out", str(out)]) == 2
    assert "qtgrad: error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("verb", ["verify3d", "uncbench"])
@pytest.mark.parametrize("line", ["set=2", "n=50"])
def test_main_rejects_config_grid_values_the_verb_ignores(tmp_path, capsys,
                                                         verb, line):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(line + "\n")
    assert main([verb, "--config", str(cfg),
                 "--out", str(tmp_path / "ignored")]) == 2
    assert "does not use" in capsys.readouterr().err


def test_missing_output_directory_fails_before_any_cell(tmp_path, capsys,
                                                        monkeypatch):
    def no_cells(*cell):
        raise AssertionError("a cell ran before the output check")

    monkeypatch.setattr(benchcli, "_run_cell", no_cells)
    out = str(tmp_path / "missing" / "u")
    with pytest.raises(InvalidSpec, match="missing"):
        run_experiment(spec_for(tmp_path, out=out))
    assert main(["uncbench", "--out", out]) == 2
    assert "does not exist" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["seeds=abc", "tau1=abc", "gamma=abc"])
def test_main_rejects_bad_numbers_in_config(tmp_path, capsys, line):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(line + "\n")
    assert main(["quadbench", "--config", str(cfg)]) == 2
    assert "qtgrad: error:" in capsys.readouterr().err
