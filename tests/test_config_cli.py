import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ergodiff
from ergodiff.cli import main
from ergodiff.config import (load_config, parse_function, parse_initial_law,
                             parse_model)
from ergodiff.errors import ConfigError

SRC = Path(ergodiff.__file__).resolve().parents[1]
CLI_CONFIG = (Path(__file__).resolve().parents[1] / "perfbench"
              / "cli_config.ini")

FULL = """
[diffusion]
model = ou(1.0)

[sim]
step = 5e-3
horizon = 20
replicas = 2400
seed = 42
a = -0.5
b = 0.5
initial = point(0.0)

[experiment]
f = indicator(-0.5, 0.5)
p = 2
t_grid = 10, 20
eps_grid = 0.1, 0.2, 1.5
out = {out}
target = 0.0
side = from_above
x_grid = 0.5, 1.0, 1.5
orders = 1
constants_replicas = 300
"""
LAST = "constants_replicas = 300"  # the file's last line: append sections here


def _write(tmp_path, text, name="exp.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_full_config(tmp_path):
    path = _write(tmp_path, FULL.format(out=tmp_path / "o"))
    cfg = load_config(path)
    assert cfg.model.label == "ou(1)"
    assert cfg.sim.replicas == 2400
    assert cfg.p == 2.0
    assert cfg.f.sup == 1.0
    assert cfg.f.support == (-0.5, 0.5)
    assert np.allclose(cfg.t_grid, [10, 20])


def test_overrides_and_hash(tmp_path):
    path = _write(tmp_path, FULL.format(out=tmp_path / "o"))
    c1 = load_config(path)
    c2 = load_config(path, seed=7, replicas=100)
    assert c2.sim.seed == 7 and c2.sim.replicas == 100
    assert c1.config_hash != c2.config_hash


@pytest.mark.parametrize("added, names", [
    ("threads = 2", ("[sim]", "threads")),
    ("crosing = bridge", ("[sim]", "crosing")),
    ("[simulation]\nstep = 1e-3", ("simulation",))],
    ids=["key", "misspelt-key", "section"])
def test_unknown_key_or_section_is_a_config_error(tmp_path, capsys, added,
                                                  names):
    text = FULL.format(out=tmp_path / "o").replace(
        "initial = point(0.0)", "initial = point(0.0)\n" + added)
    assert main(["model", "--config", _write(tmp_path, text)]) == 1
    err = capsys.readouterr().err
    assert all(name in err for name in names)


def test_section_names_are_case_insensitive(tmp_path):
    text = FULL.format(out=tmp_path / "o").replace("[sim]", "[SIM]")
    assert load_config(_write(tmp_path, text)).sim.replicas == 2400
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, text + "\n[sim]\nstep = 1e-3\n"))


@pytest.mark.parametrize("old, new, names", [
    ("orders = 1", "orders = two", ("[experiment] orders", "'two'")),
    ("step = 5e-3", "step = fast", ("[sim] step", "'fast'")),
    ("replicas = 2400", "replicas = 2.4e3", ("[sim] replicas", "'2.4e3'")),
    ("target = 0.0", "target = zero", ("[experiment] target", "'zero'")),
    # probe_limit was dropped: the recurrence verdict reads tail powers
    ("model = ou(1.0)", "model = ou(1.0)\nprobe_limit = 1e6",
     ("[diffusion] unknown key(s): probe_limit",)),
    ("model = ou(1.0)", "model = ou(one)", ("ou(one)", "'one'")),
    ("f = indicator(-0.5, 0.5)", "f = indicator(lo, 0.5)",
     ("indicator(lo, 0.5)", "'lo'")),
    ("side = from_above", "side = above", ("[experiment] side", "'above'")),
    ("orders = 1", "orders = -1", ("[experiment] orders", "-1")),
    ("model = ou(1.0)", "model = ou(1.0)\ntol = -1",
     ("[diffusion] tol", "-1")),
    ("model = ou(1.0)", "model = ou(1.0)\ntol = 0",
     ("[diffusion] tol", "must be positive")),
    ("model = ou(1.0)", "model = ou(1.0)\ntol = nan",
     ("[diffusion] tol", "nan")),
    (LAST, LAST + "\n[assumptions]\nm0 = -1", ("[assumptions]", "m0")),
    (LAST, LAST + "\n[assumptions]\nm0 = nan", ("[assumptions]", "m0")),
    (LAST, LAST + "\n[assumptions]\nm0 = 10\n"
     "sigma0 = -1\ngamma = 0\nr = 1", ("[assumptions]", "sigma0")),
    (LAST, LAST + "\n[assumptions]\nm0 = 10\n"
     "sigma1 = 1\ndelta = 0\nr_cap = 0", ("[assumptions]", "r_cap")),
    ("horizon = 20", "horizon = inf", ("horizon must be finite",)),
    ("horizon = 20", "horizon = nan", ("horizon must be finite",)),
    ("step = 5e-3", "step = nan", ("step must be positive",)),
    ("initial = point(0.0)", "initial = point(nan)", ("point law",)),
    ("initial = point(0.0)", "initial = gaussian(0, nan)",
     ("gaussian law",)),
    ("initial = point(0.0)", "initial = uniform(0, inf)", ("uniform law",)),
    ("model = ou(1.0)", "model = brownian(0)",
     ("[diffusion] model", "finite and nonzero", "0.0")),
    ("model = ou(1.0)", "model = brownian(1e200)",
     ("[diffusion] model", "finite and nonzero", "1e+200"))],
    ids=["orders", "step", "replicas", "target", "probe_limit", "model",
         "indicator", "side", "negative-orders", "negative-tol", "zero-tol",
         "nan-tol", "m0", "nan-m0", "sigma0", "r_cap", "inf-horizon",
         "nan-horizon", "nan-step", "nan-point", "nan-gaussian-sd",
         "inf-uniform", "zero-sigma", "huge-sigma"])
def test_bad_value_is_a_config_error(tmp_path, capsys, old, new, names):
    text = FULL.format(out=tmp_path / "o").replace(old, new)
    assert main(["moments", "--config", _write(tmp_path, text)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert all(name in err for name in names)


def test_out_of_range_tol_flag_is_a_config_error(tmp_path, capsys):
    path = _write(tmp_path, FULL.format(out=tmp_path / "o"))
    assert main(["model", "--config", path, "--tol", "-1"]) == 1
    assert capsys.readouterr().err.startswith("config error: --tol: ")


def test_cli_runs_without_scipy(tmp_path):
    # the runtime needs NumPy only: every scipy import fails in this process
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from ergodiff.cli import main\n"
        "for cmd in ('model', 'moments'):\n"
        f"    code = main([cmd, '--config', {str(CLI_CONFIG)!r}, "
        f"'--out', {str(tmp_path)!r}])\n"
        "    assert code == 0, (cmd, code)\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_parse_model_variants():
    assert parse_model("brownian").label == "brownian(1)"
    assert parse_model("bounded_drift(0.75)").label == "bounded_drift(0.75)"
    m = parse_model("-x/(1+x^2)", diffusion_text="1")
    assert m.label.startswith("drift[")
    with pytest.raises(ConfigError):
        parse_model("pareto(2)")


def test_parse_model_expression_error_location(tmp_path):
    text = FULL.format(out=tmp_path / "o").replace(
        "model = ou(1.0)", "drift = -x/(1+$)\ndiffusion = 1")
    with pytest.raises(ConfigError) as err:
        load_config(_write(tmp_path, text))
    assert "column" in str(err.value)


def test_parse_function_variants():
    ind = parse_function("indicator(-1, 1)", (-5, 5))
    assert ind.sup == 1.0 and ind.support == (-1.0, 1.0)
    assert ind(np.array([0.0, 2.0])).tolist() == [1.0, 0.0]
    expr = parse_function("tanh(x)", (-5, 5))
    assert expr.support is None  # not compact on the probed range
    assert expr.sup == pytest.approx(np.tanh(5.0))


def test_indicator_values_are_bitwise_the_where_form():
    ind = parse_function("indicator(-0.5, 0.5)", (-5, 5))
    xs = np.array([-np.inf, np.nextafter(-0.5, -1.0), -0.5, -0.0, 0.25, 0.5,
                   np.nextafter(0.5, 1.0), np.inf, np.nan])
    want = np.where((xs >= -0.5) & (xs <= 0.5), 1.0, 0.0)
    got = ind(xs)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert float(ind(0.5)) == 1.0 and ind([0.0, 2.0]).tolist() == [1.0, 0.0]


def test_parse_initial_law():
    assert parse_initial_law("point(1.5)").params == (1.5,)
    assert parse_initial_law("0.25").params == (0.25,)
    assert parse_initial_law("uniform(-1, 1)").kind == "uniform"
    assert parse_initial_law("gaussian(0, 2)").kind == "gaussian"
    with pytest.raises(ConfigError):
        parse_initial_law("cauchy(0,1)")


def test_missing_diffusion_section(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[sim]\nstep = 1e-3\n"))


def test_cmd_model_ou(tmp_path, capsys):
    path = _write(tmp_path, FULL.format(out=tmp_path / "o"))
    assert main(["model", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "PositiveRecurrent" in out
    assert "3.54491" in out
    report = (tmp_path / "o" / "model_report.txt").read_text()
    assert "PositiveRecurrent" in report


def test_cmd_model_brownian(tmp_path, capsys):
    text = FULL.format(out=tmp_path / "o").replace("ou(1.0)", "brownian")
    assert main(["model", "--config", _write(tmp_path, text)]) == 0
    assert "NullRecurrent" in capsys.readouterr().out


def test_cmd_model_malformed_expression(tmp_path, capsys):
    text = FULL.format(out=tmp_path / "o").replace(
        "model = ou(1.0)", "drift = 2 + * x\ndiffusion = 1")
    code = main(["model", "--config", _write(tmp_path, text)])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "column" in err


def test_cmd_moments_outputs(tmp_path):
    path = _write(tmp_path, FULL.format(out=tmp_path / "m"))
    assert main(["moments", "--config", path]) == 0
    lines = (tmp_path / "m" / "moments.csv").read_text().splitlines()
    assert lines[1] == "x,order,value"
    # order-0 rows are identically one
    zeros = [l for l in lines[2:] if l.split(",")[1] == "0"]
    assert all(l.split(",")[2] == "1.0" for l in zeros)


def test_cmd_moments_order_zero(tmp_path):
    text = FULL.format(out=tmp_path / "m0").replace("orders = 1", "orders = 0")
    assert main(["moments", "--config", _write(tmp_path, text)]) == 0
    lines = (tmp_path / "m0" / "moments.csv").read_text().splitlines()
    assert all(l.split(",")[2] == "1.0" for l in lines[2:])


BOUNDED = """
[diffusion]
model = bounded_drift(1.0)

[assumptions]
m0 = 10
sigma0 = 1
gamma = 0
r = 0.6
sigma1 = 1
delta = 0
r_cap = 1.5

[experiment]
out = {out}
target = 12.0
side = from_above
x_grid = 25, 50, 100
orders = {order}
bound_order = {order}
"""


def test_cmd_moments_bound_overlay(tmp_path):
    path = _write(tmp_path, BOUNDED.format(out=tmp_path / "b", order=1))
    assert main(["moments", "--config", path]) == 0
    lines = (tmp_path / "b" / "moment_bounds.csv").read_text().splitlines()
    assert lines[1] == "x,lower,value,upper"
    for line in lines[2:]:
        x, lo, v, hi = (float(s) for s in line.split(","))
        assert lo <= v <= hi


@pytest.mark.parametrize("model, target, x_grid, marked", [
    # the README's OU config: drift_ratio_upper fails and target < m0
    ("ou(1.0)", "0.0", "0.5, 1.0, 1.5, 2.0", [True] * 4),
    # the envelopes hold but target < m0; then the admissible target 12
    ("bounded_drift(1.0)", "5.0", "25, 50", [True] * 2),
    ("bounded_drift(1.0)", "12.0", "25, 50", [False] * 2),
])
def test_cmd_moments_marks_inadmissible_rows(tmp_path, capsys, model, target,
                                             x_grid, marked):
    text = BOUNDED.format(out=tmp_path / "i", order=1).replace(
        "bounded_drift(1.0)", model).replace(
        "target = 12.0", f"target = {target}").replace(
        "x_grid = 25, 50, 100", f"x_grid = {x_grid}")
    assert main(["moments", "--config", _write(tmp_path, text)]) == 0
    assert (f"{sum(marked)} of {len(marked)} rows inadmissible"
            in capsys.readouterr().out) == any(marked)
    lines = (tmp_path / "i" / "moment_bounds.csv").read_text().splitlines()
    assert lines[1] == "x,lower,value,upper"
    for line, mark in zip(lines[2:], marked, strict=True):
        x, lo, v, hi = line.split(",")
        float(x), float(v)
        if mark:
            assert lo == hi and lo.startswith("inadmissible: ")
            assert ("drift_ratio_upper fails" in lo) == model.startswith("ou")
            assert "needs m0 < target < x" in lo
        else:
            assert float(lo) <= float(v) <= float(hi)


def test_cmd_moments_inadmissible_order(tmp_path, capsys):
    path = _write(tmp_path, BOUNDED.format(out=tmp_path / "b2", order=2))
    code = main(["moments", "--config", path])
    assert code == 1
    err = capsys.readouterr().err
    assert "admissible range" in err


def test_cmd_moments_from_below_skips_overlay(tmp_path, capsys):
    # the overlay's bounds need x >= target: skipped, not a failure
    text = BOUNDED.format(out=tmp_path / "fb", order=1).replace(
        "bounded_drift(1.0)", "ou(1.0)").replace(
        "target = 12.0\nside = from_above\nx_grid = 25, 50, 100",
        "target = 0.0\nside = from_below\nx_grid = -2, -1, -0.5")
    assert main(["moments", "--config", _write(tmp_path, text)]) == 0
    assert "bound overlay skipped" in capsys.readouterr().out
    assert (tmp_path / "fb" / "moments.csv").exists()
    assert not (tmp_path / "fb" / "moment_bounds.csv").exists()


def test_cmd_deviation_roundtrip_and_determinism(tmp_path):
    path = _write(tmp_path, FULL.format(out=tmp_path / "d1"))
    assert main(["deviation", "--config", path]) == 0
    first = (tmp_path / "d1" / "deviation.csv").read_bytes()
    # rerun into another directory: byte-identical payload
    assert main(["deviation", "--config", path, "--out",
                 str(tmp_path / "d2")]) == 0
    second = (tmp_path / "d2" / "deviation.csv").read_bytes()
    assert first == second


def test_cmd_deviation_inadmissible_eps_cells(tmp_path):
    # eps = 1.5 >= sup|f| = 1: those cells are marked, the run continues
    path = _write(tmp_path, FULL.format(out=tmp_path / "d3"))
    assert main(["deviation", "--config", path]) == 0
    rows = (tmp_path / "d3" / "deviation.csv").read_text().splitlines()[2:]
    marked = [r for r in rows if "inadmissible" in r]
    assert marked
    assert all(r.split(",")[4] == "nan" for r in marked)


def test_cmd_deviation_l1_cells_need_compact_support(tmp_path):
    # exp(-x^2) is nonzero across the probe window: no support, so no c_f
    text = FULL.format(out=tmp_path / "nc").replace(
        "indicator(-0.5, 0.5)", "exp(-x^2)").replace(
        "eps_grid = 0.1, 0.2, 1.5", "eps_grid = 0.1, 0.2")
    assert main(["deviation", "--config", _write(tmp_path, text)]) == 0
    out = tmp_path / "nc"
    rows = [r.split(",") for r in
            (out / "deviation.csv").read_text().splitlines()[2:]]
    l1 = [r for r in rows if r[-1] == "l1"]
    sup = [r for r in rows if r[-1] == "sup"]
    assert l1 and sup
    assert all(r[4] == "nan" and r[10] == "inadmissible: L1 bound needs a "
               "compactly supported f" for r in l1)
    assert all(float(r[4]) > 0 and "inadmissible" not in r[10] for r in sup)
    consts = dict(r.split(",", 1) for r in
                  (out / "constants.csv").read_text().splitlines()[2:])
    assert consts["c_f"] == "nan,"


def test_cmd_deviation_empty_t_grid(tmp_path, capsys):
    text = FULL.format(out=tmp_path / "d4").replace("t_grid = 10, 20",
                                                    "t_grid =")
    code = main(["deviation", "--config", _write(tmp_path, text)])
    assert code == 1


@pytest.mark.parametrize("change", [("horizon = 20", "horizon = 15"),
                                    ("replicas = 2400", "replicas = 99"),
                                    ("p = 2", "p = 1"),
                                    ("t_grid = 10, 20", "t_grid = 0, 20"),
                                    ("t_grid = 10, 20", "t_grid = nan, 20")])
def test_cmd_deviation_fails_before_simulating(tmp_path, monkeypatch, change):
    def no_run(*args, **kwargs):
        raise AssertionError("simulated before the config checks")

    monkeypatch.setattr("ergodiff.simulator.simulate_paths", no_run)
    monkeypatch.setattr("ergodiff.cli.simulate_paths", no_run, raising=False)
    monkeypatch.setattr("ergodiff.cli._mu_values", no_run)
    text = FULL.format(out=tmp_path / "ff").replace(*change)
    assert main(["deviation", "--config", _write(tmp_path, text)]) == 1
    assert not (tmp_path / "ff" / "constants.csv").exists()


# sha256 of each output after its header line (which holds the config hash
# and version).  The Monte Carlo cells were recorded with separate constants
# and deviation runs; the c_f row and the l1 bound cells with the exact c_f;
# c_f, mu_f_used and the l1 cells again when integrate_finite moved onto the
# level-bisection engine (c_f 2.011137599198505, mu_f_used
# 0.5204998778130457 against erf(0.5) = 0.5204998778130465).
SHARED_RUN_SHA256 = {
    "constants.csv":
        "de27f695c7489db00baed1eb46894920e1eeddf9a82900fb54cfdd86693c4178",
    "deviation.csv":
        "15e56d20c79ac598c98508a1ca9f6efda131cb6b15815cf9db6a7e1970b68c68",
    "deviation_plot.dat":
        "cf430b4b0fe389277cc4f542c5b999d44cf90f8bcdfae57dca4ec6373c387b90",
}


def test_cmd_deviation_shares_one_full_horizon_run(tmp_path, monkeypatch):
    import ergodiff.simulator as simulator

    calls = []
    real = simulator.simulate_paths

    def spy(*args, **kwargs):
        calls.append(kwargs.get("max_cycles"))
        return real(*args, **kwargs)

    monkeypatch.setattr("ergodiff.simulator.simulate_paths", spy)
    monkeypatch.setattr("ergodiff.cli.simulate_paths", spy, raising=False)
    text = FULL.format(out=tmp_path / "sh").replace(
        "replicas = 2400", "replicas = 200").replace(
        "constants_replicas = 300\n", "")
    assert main(["deviation", "--config", _write(tmp_path, text)]) == 0
    assert calls.count(None) == 1
    for name, digest in SHARED_RUN_SHA256.items():
        body = (tmp_path / "sh" / name).read_bytes().split(b"\n", 1)[1]
        assert hashlib.sha256(body).hexdigest() == digest, name


def test_bound_violation_predicate():
    import math as _math

    from ergodiff.bounds import DeviationReport
    from ergodiff.cli import bound_violated

    def rep(emp, hw, bound):
        return DeviationReport(t=10.0, eps=0.1, empirical_prob=emp,
                               empirical_halfwidth=hw, bound_value=bound,
                               terms={}, regime="p>=2")

    assert bound_violated(rep(0.5, 0.01, 0.2))        # exceeds a sub-unit bound
    assert not bound_violated(rep(0.205, 0.01, 0.2))  # inside the slack
    assert not bound_violated(rep(0.9, 0.01, 5.0))    # vacuous bound
    assert not bound_violated(rep(0.9, 0.01, _math.nan))  # inadmissible cell


def test_cmd_deviation_numerical_failure_exit(tmp_path, capsys):
    # a transient model cannot supply an invariant average: exit code 2
    text = FULL.format(out=tmp_path / "dx").replace(
        "model = ou(1.0)", "drift = x\ndiffusion = 1")
    code = main(["deviation", "--config", _write(tmp_path, text)])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_cmd_model_tolerance_miss_is_a_numerical_failure(tmp_path, capsys):
    # m ~ |x|^(-1/2) at 0: the mass cannot be had to 1e-9 by bisection, and
    # must not be reported as M=6.49056 (exact 6.490606)
    text = FULL.format(out=tmp_path / "mp").replace(
        "model = ou(1.0)", "drift = -x\ndiffusion = abs(x)^0.25")
    with np.errstate(divide="ignore"):
        code = main(["model", "--config", _write(tmp_path, text)])
    assert code == 2
    captured = capsys.readouterr()
    assert "numerical failure" in captured.err
    assert "M=" not in captured.out
    assert not (tmp_path / "mp" / "model_report.txt").exists()


def test_selftest_runs(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") >= 4 and "[FAIL]" not in out


def test_selftest_takes_no_out_dir(tmp_path, capsys):
    # selftest writes no files, so an output directory is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--out", str(tmp_path)])
    assert exc.value.code == 2
