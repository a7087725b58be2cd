import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from graphzeta.cli import build_parser, main, run

SRC = Path(__file__).resolve().parent.parent / "src"

INTERVAL = {
    "vertices": 2,
    "bonds": [{"id": 1, "origin": 1, "terminus": 2, "length": 1.0}],
    "matching": {"mode": "per_vertex", "vertices": [
        {"vertex": 1, "kind": "dirichlet"},
        {"vertex": 2, "kind": "dirichlet"}]},
}

STAR = {
    "vertices": 4,
    "bonds": [{"id": i + 1, "origin": 1, "terminus": i + 2, "length": 1.0}
              for i in range(3)],
    "matching": {"mode": "per_vertex", "vertices": [
        {"vertex": 1, "kind": "delta", "lambda": 1.0},
        {"vertex": 2, "kind": "dirichlet"},
        {"vertex": 3, "kind": "dirichlet"},
        {"vertex": 4, "kind": "dirichlet"}]},
}

GLOBAL_DIRICHLET = {
    "vertices": 2,
    "bonds": [{"id": 1, "origin": 1, "terminus": 2, "length": 1.0}],
    "matching": {"mode": "global", "A": [[1, 0], [0, 1]],
                 "B": [[0, 0], [0, 0]]},
}


def write(tmp_path, doc, name="graph.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    args = build_parser().parse_args(argv)
    from graphzeta.errors import GraphZetaError
    try:
        rc = run(args, out=out, err=err)
    except GraphZetaError as exc:
        print(f"error: {exc}", file=err)
        rc = exc.exit_code
    return rc, out.getvalue(), err.getvalue()


def test_validate_ok(tmp_path):
    rc, out, _ = invoke(["validate", "--graph", write(tmp_path, INTERVAL)])
    assert rc == 0
    assert "self-adjoint" in out
    assert all(line.startswith("ok") for line in out.strip().splitlines())


def test_validate_rejects(tmp_path):
    bad = dict(INTERVAL)
    bad["matching"] = {"mode": "global", "A": [[1, 0], [0, 0]],
                       "B": [[0, 1], [1, 0]]}
    rc, out, _ = invoke(["validate", "--graph", write(tmp_path, bad)])
    assert rc == 2
    assert "FAIL" in out


def test_spectrum_csv(tmp_path):
    rc, out, _ = invoke(["spectrum", "--graph", write(tmp_path, INTERVAL),
                         "--k-max", "10"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,k,energy,multiplicity"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3
    assert float(rows[0][1]) == pytest.approx(math.pi, abs=1e-8)
    assert float(rows[0][2]) == pytest.approx(math.pi ** 2, abs=1e-7)
    assert rows[0][3] == "1"


def test_spectrum_json(tmp_path):
    rc, out, _ = invoke(["spectrum", "--graph", write(tmp_path, STAR),
                         "--k-max", "7", "--format", "json"])
    assert rc == 0
    rows = json.loads(out)
    assert rows[0]["index"] == 0
    ks = [r["k"] for r in rows]
    assert ks == sorted(ks)
    assert any(r["multiplicity"] == 2 for r in rows)


def test_zeta_command(tmp_path):
    rc, out, _ = invoke(["zeta", "--graph", write(tmp_path, INTERVAL),
                         "--s", "0.75"])
    assert rc == 0
    header, row = out.strip().splitlines()
    assert header.split(",")[0] == "re_s"
    vals = dict(zip(header.split(","), row.split(",")))
    exact = math.pi ** -1.5 * 2.6123753486854883
    assert float(vals["re_value"]) == pytest.approx(exact, abs=1e-10)
    assert float(vals["error_estimate"]) < 1e-9


def test_zeta_complex_s_and_gamma(tmp_path):
    rc, out, _ = invoke(["zeta", "--graph", write(tmp_path, INTERVAL),
                         "--s", "0.75,0.3", "--gamma", "0.5"])
    assert rc == 0
    header, row = out.strip().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert float(vals["im_s"]) == 0.3
    assert float(vals["gamma"]) == 0.5
    assert float(vals["im_value"]) != 0.0


def test_energy_command_unambiguous(tmp_path):
    rc, out, err = invoke(["energy", "--graph", write(tmp_path, INTERVAL)])
    assert rc == 0
    assert err == ""
    header, row = out.strip().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert float(vals["fp_half"]) == pytest.approx(-math.pi / 24, abs=1e-10)
    assert vals["ambiguous"] == "false"


def test_energy_command_at_extreme_mu(tmp_path):
    path = write(tmp_path, INTERVAL)
    for mu in ("1e-200", "1e200"):
        rc, out, _ = invoke(["energy", "--graph", path, "--mu", mu])
        assert rc == 0
        header, row = out.strip().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert math.isfinite(float(vals["finite_energy_at_mu"]))
        assert vals["finite_energy_at_mu"] == vals["fp_half"]


def test_energy_command_warns_on_pole(tmp_path):
    rc, out, err = invoke(["energy", "--graph", write(tmp_path, STAR),
                           "--mu", "2.0"])
    assert rc == 0
    assert "depends on the scale mu" in err
    vals = dict(zip(*[line.split(",") for line in out.strip().splitlines()]))
    assert vals["ambiguous"] == "true"
    assert float(vals["res_half"]) == pytest.approx(1 / (12 * math.pi),
                                                    abs=1e-10)


def test_force_command(tmp_path):
    rc, out, _ = invoke(["force", "--graph", write(tmp_path, INTERVAL),
                         "--bond", "1"])
    assert rc == 0
    header, row = out.strip().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert vals["bond"] == "1"
    assert float(vals["force"]) == pytest.approx(-math.pi / 24, abs=1e-8)


def test_exit_codes(tmp_path):
    path_global = write(tmp_path, GLOBAL_DIRICHLET)
    rc, _, err = invoke(["zeta", "--graph", path_global, "--s", "0.75"])
    assert rc == 4 and "error:" in err
    rc, _, _ = invoke(["spectrum", "--graph", path_global, "--k-max", "10"])
    assert rc == 0
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    rc, _, err = invoke(["validate", "--graph", str(broken)])
    assert rc == 2 and "invalid JSON" in err
    rc, _, _ = invoke(["force", "--graph", write(tmp_path, INTERVAL),
                       "--bond", "7"])
    assert rc == 2
    rc, _, _ = invoke(["zeta", "--graph", write(tmp_path, INTERVAL),
                       "--s", "0.75", "--gamma", "-1"])
    assert rc == 4


def test_zeta_at_unrepresentable_gamma_exits_3(tmp_path, capsys):
    # J^(2-2s), J = sqrt(2 gamma), overflows at s = -0.9: a typed
    # NumericalError naming gamma, not a traceback
    rc = main(["zeta", "--graph", write(tmp_path, INTERVAL), "--s=-0.9",
               "--gamma", "1e200"])
    assert rc == 3
    assert "gamma=1e+200" in capsys.readouterr().err


def test_commands_refuse_options_they_do_not_read(tmp_path):
    path = write(tmp_path, INTERVAL)
    for argv in (["energy", "--tol", "nan"],
                 ["force", "--bond", "1", "--tol=-1"],
                 ["spectrum", "--k-max", "10", "--tol", "nan"],
                 ["validate", "--k-max", "nan"],
                 ["energy", "--threads", "5"],
                 ["spectrum", "--k-max", "10", "--threads", "2"]):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--graph", path] + argv[1:])
        assert exc.value.code == 2, argv


def test_malformed_potential_is_a_format_error(tmp_path):
    doc = json.loads(json.dumps(INTERVAL))
    doc["bonds"][0]["potential"] = {"kind": "constant", "value": math.inf}
    path = write(tmp_path, doc)
    assert main(["validate", "--graph", path]) == 2
    assert main(["spectrum", "--graph", path, "--k-max", "10"]) == 2


def test_spectrum_refuses_non_finite_k_max(tmp_path):
    path = write(tmp_path, INTERVAL)
    for k_max in ("nan", "inf"):
        assert main(["spectrum", "--graph", path, "--k-max", k_max]) == 4


def test_zeta_and_energy_refuse_non_finite_arguments(tmp_path):
    path = write(tmp_path, INTERVAL)
    for value in ("nan", "inf"):
        assert main(["zeta", "--graph", path, "--s", "0.75",
                     "--gamma", value]) == 4
        assert main(["energy", "--graph", path, "--mu", value]) == 4


def test_zeta_refuses_non_finite_s_and_bad_tol(tmp_path):
    path = write(tmp_path, INTERVAL)
    for s in ("0.75,inf", "0.75,nan", "nan", "inf"):
        assert main(["zeta", "--graph", path, f"--s={s}"]) == 4
    for tol in ("nan", "-1", "0", "inf"):
        assert main(["zeta", "--graph", path, "--s", "0.75",
                     f"--tol={tol}"]) == 4


def test_parser_requires_command_arguments():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["zeta"])
    with pytest.raises(SystemExit):
        parser.parse_args(["zeta", "--graph", "g.json", "--s", "zz"])


def test_main_entry_point(tmp_path):
    path = write(tmp_path, INTERVAL)
    assert main(["validate", "--graph", path]) == 0
    # the child finds the package with or without PYTHONPATH set
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "graphzeta", "energy", "--graph", path],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.startswith("fp_half,")


@pytest.mark.parametrize("c", [4e5, 1e6])
def test_spectrum_under_a_large_constant_potential(tmp_path, capsys, c):
    # the lowest root of the unit Dirichlet interval is near k = sqrt(c):
    # the window up to k = 10 is empty (exit 0) or a typed numerical
    # error (exit 3), never an untyped failure (exit 1)
    doc = {**INTERVAL, "bonds": [{**INTERVAL["bonds"][0], "potential": {
        "kind": "constant", "value": c}}]}
    path = write(tmp_path, doc)
    rc = main(["spectrum", "--graph", path, "--k-max", "10"])
    assert rc in (0, 3)
    if rc == 0:
        assert capsys.readouterr().out.strip().splitlines() == [
            "index,k,energy,multiplicity"]


def test_spectrum_across_a_large_constant_potential(tmp_path):
    # the window to k = 1010 of the unit Dirichlet interval under c = 1e6
    # holds 45 roots; no overflow reaches stderr, even as an error
    doc = {**INTERVAL, "bonds": [{**INTERVAL["bonds"][0], "potential": {
        "kind": "constant", "value": 1e6}}]}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "graphzeta",
         "spectrum", "--graph", write(tmp_path, doc), "--k-max", "1010"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.strip().splitlines()) == 46


def test_spectrum_past_the_bump_range_exits_4(tmp_path, capsys):
    # k h = 2 on the height-0.3 bump at k = 500
    doc = {**INTERVAL, "bonds": [{**INTERVAL["bonds"][0], "potential": {
        "kind": "bump", "center": 0.5, "half_width": 0.3, "height": 0.3}}]}
    path = write(tmp_path, doc)
    assert main(["spectrum", "--graph", path, "--k-max", "600"]) == 4
    assert "largest supported k is 500" in capsys.readouterr().err
