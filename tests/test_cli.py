import dataclasses
import io
import json
import math
import sys
import warnings
from contextlib import redirect_stdout

import pytest

import spinboson.cli as cli
import spinboson.combinatorics as comb
from spinboson import verify
from spinboson.cli import main
from spinboson.kernel import KernelSpec, build_kernel


@pytest.fixture(scope="session")
def kernel_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "indicator.json"
    path.write_text(json.dumps({"mode": "indicator", "cutoff": 1.0}))
    return str(path)


@pytest.fixture(scope="session")
def zero_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "zero.json"
    path.write_text(json.dumps({"mode": "h_table", "points": [[0.0, 0.0], [1.0, 0.0]]}))
    return str(path)


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_json(argv):
    code, out = run_cli(argv)
    return code, json.loads(out) if out else None


def test_norms(kernel_cfg):
    code, doc = run_json(["norms", "--kernel", kernel_cfg])
    assert code == 0
    assert doc["norm_inf"] == pytest.approx(2 * math.pi, rel=1e-9)
    assert doc["norm_l1"] == pytest.approx(8 * math.pi, rel=1e-9)


def test_radius(kernel_cfg):
    code, doc = run_json(["radius", "--kernel", kernel_cfg])
    assert code == 0
    assert doc["R_min"] == pytest.approx(7.54e-4, rel=5e-3)
    assert doc["lambda_radius"] == pytest.approx(0.34, rel=5e-2)
    assert doc["K"] * doc["R_min"] == pytest.approx(1.0, rel=1e-12)
    assert not doc["unbounded"]


def test_radius_zero_kernel(zero_cfg):
    code, doc = run_json(["radius", "--kernel", zero_cfg])
    assert code == 0
    assert doc["unbounded"] and doc["R_min"] is None


def test_simulate_alpha_zero(kernel_cfg):
    code, doc = run_json([
        "simulate", "--kernel", kernel_cfg, "--alpha", "0", "--horizon", "5",
        "--samples", "10", "--seed", "1",
    ])
    assert code == 0
    assert doc["value"] == 1.0
    assert doc["std_error"] == 0.0
    assert doc["samples"] == 10 and doc["seed"] == 1


def test_coefficient_quad(kernel_cfg):
    code, doc = run_json([
        "coefficient", "--kernel", kernel_cfg, "--p", "1", "--method", "quad",
    ])
    assert code == 0
    assert doc["method"] == "quadrature"
    assert doc["value"] > 0


def test_coefficient_per_term_csv(kernel_cfg):
    code, out = run_cli([
        "coefficient", "--kernel", kernel_cfg, "--p", "2", "--method", "mc",
        "--budget", "2000", "--seed", "3", "--per-term", "--output", "csv",
    ])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,p,matching,forest,sign,value,statistical_error"
    assert len(lines) == 4  # three connecting terms at order 2
    assert lines[1].split(",")[2] == "0-1;2-3"


def test_coefficient_csv_needs_per_term(kernel_cfg, capsys):
    # a CSV request without --per-term was answered in JSON with exit 0
    code, out = run_cli(["coefficient", "--kernel", kernel_cfg, "--p", "2", "--method", "mc",
                         "--budget", "2000", "--seed", "3", "--output", "csv"])
    assert code == 2 and out == ""
    assert "--per-term" in capsys.readouterr().err



def test_coefficient_per_term_json_lists_every_term(kernel_cfg):
    # without --output csv the per-term estimates ride in the JSON document,
    # one per connecting term, and sum to the total
    code, doc = run_json(["coefficient", "--kernel", kernel_cfg, "--p", "2", "--method", "mc",
                          "--budget", "2000", "--seed", "3", "--per-term"])
    assert code == 0 and len(doc["terms"]) == 3  # three connecting terms at order 2
    assert math.fsum(t["value"] for t in doc["terms"]) == doc["value"]
    assert all(t["p"] == 2 and t["method"] == "monte_carlo" for t in doc["terms"])


@pytest.mark.parametrize("argv", [
    ["verify", "bkar", "--p", "3", "--trials", "2", "--seed", "1"],
    ["coefficient", "--p", "2", "--method", "quad"],
    ["energy", "--alpha", "1e-4", "--pmax", "2", "--method", "quad"],
])
def test_workers_below_one_is_a_usage_error(kernel_cfg, argv, capsys, monkeypatch):
    # these commands never reach rng.map_batches, whose own check refuses it,
    # so they ran with --workers 0 and exited 0; argparse now refuses it
    monkeypatch.setenv("SPINBOSON_KERNEL", kernel_cfg)
    for workers in ("0", "-1"):
        code, out = run_cli(argv + ["--workers", workers])
        assert code == 2 and out == ""
        assert "workers must be >= 1" in capsys.readouterr().err


def test_raw_needs_a_finite_horizon(kernel_cfg, capsys):
    code, out = run_cli(["coefficient", "--kernel", kernel_cfg, "--p", "2", "--raw", "--seed", "1"])
    assert code == 2 and out == ""
    assert "--raw needs --finite-T" in capsys.readouterr().err


def test_unreliable_estimate_exits_1(kernel_cfg, capsys):
    # an exponent past the overflow limit is an estimate failure, not a usage error
    code, out = run_cli(["simulate", "--kernel", kernel_cfg, "--alpha", "1e6", "--horizon", "10",
                         "--samples", "200", "--seed", "1"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith("error: exp overflow in Z estimate")


def test_raw_coefficient_runs(kernel_cfg):
    code, doc = run_json(["coefficient", "--kernel", kernel_cfg, "--p", "2", "--finite-T", "3",
                          "--raw", "--seed", "1", "--budget", "2000"])
    assert code == 0 and doc["p"] == 2


def test_energy_cli(kernel_cfg):
    code, doc = run_json([
        "energy", "--kernel", kernel_cfg, "--lambda", "0.05", "--pmax", "2",
        "--method", "quad",
    ])
    assert code == 0
    assert doc["energy"] < 0
    assert doc["certified"] is True
    assert doc["tail_bound"] >= 0
    assert len(doc["coefficients"]) == 2
    assert doc["lambda"] == 0.05


def test_energy_requires_seed_for_mc(kernel_cfg):
    code, _ = run_cli([
        "energy", "--kernel", kernel_cfg, "--alpha", "1e-4", "--method", "mc",
    ])
    assert code == 2


def test_counts(kernel_cfg):
    code, doc = run_json(["counts", "--p", "2"])
    assert code == 0
    assert doc == {
        "p": 2, "matchings": 3, "connecting_pairs": 3, "per_tree_max": 3, "trees": 1,
    }


def test_order_warning_prints_the_message_alone(kernel_cfg, capsys):
    # raised once already under the default filters, which then show it no more
    # from that line; the CLI still prints it, as one bare line, at every entry point
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        comb.check_order(5)
        for argv in (["counts", "--p", "5"], ["verify", "counts", "--p", "5"],
                     ["coefficient", "--kernel", kernel_cfg, "--p", "5", "--method", "mc",
                      "--budget", "1", "--seed", "1"]):
            capsys.readouterr()
            assert run_cli(argv)[0] == 0
            assert capsys.readouterr().err == (
                "warning: order p=5: enumeration sizes grow factorially\n")


def test_warning_prints_when_raised(monkeypatch, capsys):
    # a warning shows before what the handler writes after it, not when it returns
    def handler(args):
        warnings.warn("first", UserWarning)
        print("after the warning", file=sys.stderr)
        warnings.warn("first", UserWarning)
        return {}, 0

    monkeypatch.setattr(cli, "_cmd_norms", handler)
    assert run_cli(["norms"])[0] == 0
    assert capsys.readouterr().err == "warning: first\nafter the warning\n"


def test_energy_past_the_default_order_cap(kernel_cfg, capsys):
    # --pmax runs up to the hard cap, warning once that enumeration grows
    code, doc = run_json(["energy", "--kernel", kernel_cfg, "--alpha", "3e-4", "--pmax", "5",
                          "--method", "mc", "--budget", "1", "--seed", "1"])
    assert code == 0
    assert [c["p"] for c in doc["coefficients"]] == [1, 2, 3, 4, 5]
    assert capsys.readouterr().err == "warning: order p=5: enumeration sizes grow factorially\n"


def test_verify_counts_small():
    code, doc = run_json(["verify", "counts", "--p", "3"])
    assert code == 0
    assert doc["passed"] is True
    assert all(doc["checks"].values())


def test_verify_bkar_p2():
    code, doc = run_json(["verify", "bkar", "--p", "2", "--trials", "25", "--seed", "5"])
    assert code == 0
    assert doc["passed"] is True
    assert doc["analytic_disjoint_residual"] == 0.0
    assert doc["analytic_overlap_residual"] == 0.0
    assert doc["max_residual"] < 1e-8


def test_verify_bkar_p5():
    # orders above the default cap enumerate at their own order
    code, doc = run_json(["verify", "bkar", "--p", "5", "--trials", "20", "--seed", "1"])
    assert code == 0
    assert doc["passed"] is True
    assert doc["max_residual"] <= 1e-12


def test_verify_lemma1_small():
    code, doc = run_json([
        "verify", "lemma1", "--samples", "50000", "--seed", "7", "--tuples", "6",
    ])
    assert code == 0
    assert doc["passes"] >= doc["required"]


def test_usage_errors(kernel_cfg):
    code, _ = run_cli(["simulate", "--alpha", "0"])  # missing required flags
    assert code == 2
    code, _ = run_cli(["nonsense"])
    assert code == 2
    code, _ = run_cli(["norms"])  # no kernel config anywhere
    assert code == 2
    code, _ = run_cli(["coefficient", "--kernel", kernel_cfg, "--p", "9",
                       "--method", "quad"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["coefficient", "--p", "2", "--finite-T", "inf", "--seed", "1", "--budget", "10"],
    ["coefficient", "--p", "2", "--finite-T", "nan", "--seed", "1", "--budget", "10"],
    ["coefficient", "--p", "2", "--finite-T", "inf", "--raw", "--seed", "1", "--budget", "10"],
    ["coefficient", "--p", "2", "--finite-T", "nan", "--raw", "--seed", "1", "--budget", "10"],
    ["coefficient", "--p", "1", "--finite-T", "0", "--raw", "--seed", "1", "--budget", "10"],
    ["verify", "resummation", "--horizon", "inf", "--budget", "10", "--seed", "1"],
    ["simulate", "--horizon", "inf", "--alpha", "1e-4", "--samples", "10", "--seed", "1"],
    ["simulate", "--horizon", "-1", "--alpha", "1e-4", "--samples", "10", "--seed", "1"],
])
def test_horizon_not_finite_and_positive_exits_2(kernel_cfg, argv, capsys):
    # a configuration error, not a failed verification (exit 1) or an overflow
    code, out = run_cli(argv + ["--kernel", kernel_cfg])
    assert code == 2 and out == ""
    assert "horizon" in capsys.readouterr().err


def test_kernel_env_var(kernel_cfg, monkeypatch):
    monkeypatch.setenv("SPINBOSON_KERNEL", kernel_cfg)
    code, doc = run_json(["norms"])
    assert code == 0
    assert doc["norm_l1"] == pytest.approx(8 * math.pi, rel=1e-9)


def test_byte_identical_output_fixed_seed(kernel_cfg):
    argv = [
        "simulate", "--kernel", kernel_cfg, "--alpha", "2e-4", "--horizon", "4",
        "--samples", "4000", "--seed", "11",
    ]
    _, out1 = run_cli(argv + ["--workers", "1"])
    _, out2 = run_cli(argv + ["--workers", "8"])
    assert out1 == out2
    assert out1  # non-empty JSON


def test_byte_identical_across_processes(kernel_cfg):
    import subprocess
    import sys

    argv = [
        sys.executable, "-m", "spinboson.cli", "simulate", "--kernel", kernel_cfg,
        "--alpha", "1e-4", "--horizon", "3", "--samples", "2000", "--seed", "13",
    ]
    r1 = subprocess.run(argv + ["--workers", "1"], capture_output=True, check=True)
    r2 = subprocess.run(argv + ["--workers", "4"], capture_output=True, check=True)
    assert r1.stdout == r2.stdout and r1.stdout


def test_monte_carlo_run_does_not_import_quadrature_or_interpolation(kernel_cfg):
    # only --method quad, h_table kernels and Phi use these large scipy modules,
    # so a Monte Carlo coefficient run on a radial kernel must not load them
    import subprocess
    import sys

    script = (
        "import sys\n"
        "from spinboson.cli import main\n"
        f"main(['coefficient', '--kernel', {kernel_cfg!r}, '--p', '2', '--budget', '1000',"
        " '--seed', '1'])\n"
        "print(sorted({'scipy.integrate', 'scipy.interpolate', 'scipy.special'}"
        " & set(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, check=True, text=True)
    assert out.stdout.rstrip().endswith("[]")


def test_help_available_everywhere():
    for argv in (["--help"], ["simulate", "--help"], ["verify", "--help"],
                 ["verify", "bkar", "--help"]):
        code, out = run_cli(argv)
        assert code == 0


def test_verify_bkar_integrates_many_selections(monkeypatch):
    # trials on the base matching reach forest_volume with many selections;
    # uniformly drawn matchings alone reached it 15 times at this seed
    calls = []
    volume = comb.forest_volume

    def counting(*args, **kwargs):
        calls.append(1)
        return volume(*args, **kwargs)

    monkeypatch.setattr(comb, "forest_volume", counting)
    code, doc = run_json(["verify", "bkar", "--p", "4", "--trials", "20", "--seed", "1"])
    assert code == 0 and doc["passed"] is True
    assert len(calls) >= 40


def test_verify_counts_fails_on_h_steps_with_swapped_points(monkeypatch):
    # an opening whose h steps leave from the child's point must fail the step check
    real = comb.open_cycles

    def swapped(matching, selection, root_pair=0):
        opened = real(matching, selection, root_pair)
        steps = tuple((c, par, kind, ppt, cpt) if kind == "h" else (c, par, kind, cpt, ppt)
                      for c, par, kind, cpt, ppt in opened.steps)
        return dataclasses.replace(opened, steps=steps)

    monkeypatch.setattr(comb, "open_cycles", swapped)
    doc = verify.counts(3)
    assert doc["checks"]["offspring_counts"] is False
    assert doc["passed"] is False


def test_verify_library_matches_cli(kernel_cfg):
    kernel = build_kernel(KernelSpec.from_json(kernel_cfg))
    doc = verify.resummation(kernel, [2.0], 4000, 7)
    code, printed = run_json([
        "verify", "resummation", "--kernel", kernel_cfg, "--horizon", "2",
        "--budget", "4000", "--seed", "7",
    ])
    assert code == (0 if doc["passed"] else 1)
    assert printed == doc


def test_resummation_without_horizons_is_refused(indicator_kernel):
    # the CLI's --horizon takes one or more, but the library could pass none
    # and report passed after no check
    with pytest.raises(ValueError, match="at least one horizon"):
        verify.resummation(indicator_kernel, [], 4000, 7)


def test_h_table_c2_quadrature_exits_2(tmp_path):
    cfg = tmp_path / "h_table.json"
    cfg.write_text(json.dumps({"mode": "h_table", "points": [[0.0, 6.28], [1.0, 3.32], [8.0, 0.19]]}))
    code, _ = run_cli(["coefficient", "--kernel", str(cfg), "--p", "2", "--method", "quad"])
    assert code == 2


def test_c2_quadrature_loads_no_scipy(kernel_cfg):
    # the order sum needs numpy alone, pinned and at finite T
    import subprocess
    import sys

    script = (
        "import contextlib, io, sys\n"
        "from spinboson.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(['coefficient', '--kernel', {kernel_cfg!r}, '--p', '2',"
        " '--method', 'quad'] + extra) for extra in ([], ['--finite-T', '5'])]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, check=True, text=True)
    assert out.stdout.strip() == "[0, 0] []"


@pytest.mark.parametrize("argv, message", [
    (["coefficient", "--p", "2", "--pin-pair", "5", "--seed", "1", "--budget", "10"], "root pair"),
    (["coefficient", "--p", "2", "--pin-pair", "-1", "--seed", "1", "--budget", "10"], "root pair"),
    (["coefficient", "--p", "2", "--pin-pair", "5", "--method", "quad"], "root pair"),
    (["coefficient", "--p", "2", "--budget", "0", "--seed", "1"], "budget"),
    (["coefficient", "--p", "2", "--budget", "-3", "--seed", "1"], "budget"),
    (["coefficient", "--p", "2", "--budget", "0", "--method", "quad"], "budget"),
    (["coefficient", "--p", "1", "--budget", "0", "--seed", "1", "--raw", "--finite-T", "3"],
     "samples"),
    (["energy", "--pmax", "1", "--budget", "0", "--seed", "1", "--alpha", "1e-4"], "budget"),
    (["simulate", "--alpha", "nan", "--horizon", "5", "--samples", "10", "--seed", "1"],
     "alpha must be finite"),
    (["simulate", "--alpha", "inf", "--horizon", "5", "--samples", "10", "--seed", "1"],
     "alpha must be finite"),
    (["energy", "--pmax", "1", "--method", "quad", "--alpha", "nan"], "coupling must be finite"),
    (["energy", "--pmax", "1", "--method", "quad", "--alpha", "inf"], "coupling must be finite"),
    (["energy", "--pmax", "1", "--method", "quad", "--lambda", "nan"], "coupling must be finite"),
    (["coefficient", "--p", "2", "--budget", "100", "--seed", "1", "--workers", "-3"], "workers"),
    (["verify", "lemma1", "--seed", "1", "--tuples", "0"], "tuples must be"),
    (["verify", "bkar", "--p", "3", "--seed", "1", "--trials", "0"], "trials must be"),
    (["verify", "counts", "--p", "0"], "order p must be"),
    (["counts", "--p", "7"], "beyond the cap"),
    (["energy", "--pmax", "0", "--method", "quad", "--alpha", "1e-4"], "order p must be"),
    (["energy", "--pmax", "-2", "--method", "quad", "--alpha", "1e-4"], "order p must be"),
    (["energy", "--pmax", "7", "--method", "quad", "--alpha", "1e-4"], "beyond the cap"),
    # the raw series is one Monte Carlo estimate: no quadrature, terms or pin pair
    (["coefficient", "--p", "2", "--finite-T", "3", "--raw", "--seed", "1", "--method", "quad"],
     "takes no --method quad"),
    (["coefficient", "--p", "2", "--finite-T", "3", "--raw", "--seed", "1", "--per-term",
      "--output", "csv"], "takes no --per-term"),
    (["coefficient", "--p", "2", "--finite-T", "3", "--raw", "--seed", "1", "--pin-pair", "1"],
     "takes no --pin-pair"),
    (["coefficient", "--p", "2", "--finite-T", "3", "--raw", "--seed", "1", "--method", "quad",
      "--pin-pair", "1"], "takes no --method quad, --pin-pair"),
    # the coefficients keep the order rule of counts and energy
    (["coefficient", "--p", "7", "--seed", "1", "--budget", "1"], "beyond the cap 6"),
    (["coefficient", "--p", "0", "--seed", "1", "--budget", "1"], "order p must be"),
    # CSV is the per-term table only
    (["coefficient", "--p", "2", "--method", "quad", "--output", "csv"], "needs --per-term"),
    (["coefficient", "--p", "1", "--finite-T", "3", "--raw", "--seed", "1", "--output", "csv"],
     "needs --per-term"),
    # verify bkar keeps the same order rule
    (["verify", "bkar", "--p", "7", "--seed", "1", "--trials", "1"], "beyond the cap 6"),
    (["verify", "bkar", "--p", "0", "--seed", "1", "--trials", "1"], "order p must be"),
])
def test_out_of_range_arguments_exit_2(kernel_cfg, argv, message, capsys, monkeypatch):
    monkeypatch.setenv("SPINBOSON_KERNEL", kernel_cfg)  # not every subcommand takes --kernel
    code, out = run_cli(argv)
    assert code == 2 and out == ""
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"mode": "indicator", "cutoff": None},
    {"mode": "radial_table", "points": [[0.5, 1.0], {}]},
    {"mode": "indicator", "cutoff": True},
    {"mode": "indicator", "cutoff": "1"},
    {"mode": "radial_table", "points": [[0, True], ["1", 1]]},
])
def test_malformed_kernel_config_exits_2(tmp_path, doc, capsys):
    cfg = tmp_path / "kernel.json"
    cfg.write_text(json.dumps(doc))
    code, out = run_cli(["norms", "--kernel", str(cfg)])
    assert code == 2 and out == ""
    assert "kernel" in capsys.readouterr().err
