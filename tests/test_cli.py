import io
import json
import math
from contextlib import redirect_stdout

import pytest

from spinboson.cli import main


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


def test_help_available_everywhere():
    for argv in (["--help"], ["simulate", "--help"], ["verify", "--help"],
                 ["verify", "bkar", "--help"]):
        code, out = run_cli(argv)
        assert code == 0
