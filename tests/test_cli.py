"""CLI surface: reports, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import wgqsim
from wgqsim.cli import main

NORM_TRIP = """\
circuit trip
emitters 1
modes 0 1
mix kind=bs a=0 b=1
mirror in=0 out=1
detect D1=(1,H) D2=(1,V)
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_coeffs_report(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--purcell", "100", "--detuning", "0.1")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "wgqsim.coeffs/1"
    assert rep["reflect_prob"] == pytest.approx(0.9433072351664938, abs=1e-12)
    assert rep["purcell"] == 100.0


def test_coeffs_ideal_sentinel(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--purcell", "ideal")
    assert code == 0
    rep = json.loads(out)
    assert rep["purcell"] == "ideal"
    assert rep["r"] == [-1.0, 0.0]
    assert rep["loss"] == 0.0


def test_coeffs_text_format(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--format", "text")
    assert code == 0
    assert "|r|^2" in out


def test_run_matches_exec_byte_for_byte(tmp_path, capsys):
    a = tmp_path / "run.json"
    b = tmp_path / "exec.json"
    common = ["--purcell", "100", "--detuning", "0.1", "--offsets", "0.05,-0.03"]
    assert main(["run", "--protocol", "klm2", *common, "--out", str(a)]) == 0
    assert main(["exec", "klm2", *common, "--out", str(b)]) == 0
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    ra.pop("timing_s"), rb.pop("timing_s")
    assert ra == rb
    assert ra["protocol"] == "klm2"
    assert ra["herald_probability"] == pytest.approx(0.8878464025159507, abs=1e-10)


def test_run_report_shape(capsys):
    code, out, _ = run_cli(capsys, "run", "--n", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "wgqsim.run/1"
    assert rep["params"]["purcell"] == "ideal"
    assert rep["weighted_fidelity"] == pytest.approx(1.0, abs=1e-10)
    assert len(rep["outcomes"]) == 4
    for oc in rep["outcomes"]:
        assert oc["probability"] == pytest.approx(0.25, abs=1e-10)
        assert oc["fidelity"] == pytest.approx(1.0, abs=1e-10)
        assert set(oc["corrected"]) == {"++", "+-", "--"}


def test_run_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["run", "--protocol", "klm3", "--purcell", "80", "--detuning", "0.05"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    ra.pop("timing_s"), rb.pop("timing_s")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


def test_exec_reads_file_and_writes_trace(tmp_path, capsys):
    from wgqsim.netlist import serialize
    from wgqsim.protocols import build_three_qubit

    src = tmp_path / "c.wgq"
    src.write_text(serialize(build_three_qubit()))
    trace = tmp_path / "trace.txt"
    code, out, _ = run_cli(capsys, "exec", str(src), "--trace", str(trace))
    assert code == 0
    rep = json.loads(out)
    assert rep["protocol"] == "klm3"
    text = trace.read_text()
    assert text.startswith("# step 0 ")
    assert "np.float64" not in text
    # the last step is the detector bank; its slots, labeled in the
    # report's '+'/'-' basis, give each detector's conditioned register
    bank = build_three_qubit().components[-1].mapping_dict
    per_det = {}
    for line in text.strip().split("\n\n")[-1].splitlines()[1:]:
        mode, pol, cfg, re_s, im_s = line.split(",")
        det = bank[(int(mode), pol)]
        per_det.setdefault(det, {})[cfg] = complex(float(re_s), float(im_s))
    assert set(per_det) == {oc["detector"] for oc in rep["outcomes"]}
    for oc in rep["outcomes"]:
        amps = per_det[oc["detector"]]
        ref = amps["+++"]
        scale = abs(ref) / (ref * math.sqrt(oc["probability"]))
        assert set(amps) == set(oc["conditioned"])
        for cfg, (re, im) in oc["conditioned"].items():
            assert abs(amps[cfg] * scale - complex(re, im)) <= 1e-12


def test_exit_code_io(capsys):
    code, _, err = run_cli(capsys, "exec", "/no/such/place.wgq")
    assert code == 1
    assert "io error" in err


def test_exit_code_parse(tmp_path, capsys):
    bad = tmp_path / "bad.wgq"
    bad.write_text("circuit x\nemitters 1\nhwp mode=0\n")
    code, _, err = run_cli(capsys, "exec", str(bad))
    assert code == 3
    assert "netlist error" in err


def test_exit_code_flags(capsys):
    code, _, err = run_cli(capsys, "run", "--protocol", "klm2", "--offsets", "0.1")
    assert code == 2
    code, _, err = run_cli(capsys, "run", "--protocol", "klm2", "--purcell", "-4")
    assert code == 2
    code, _, err = run_cli(capsys, "run", "--protocol", "klm2", "--n", "3")
    assert code == 2
    code, out, err = run_cli(capsys, "run", "--n", "1")
    assert code == 2
    assert out == "" and "n >= 2" in err
    code, _, err = run_cli(capsys, "fidelity", "--n", "9", "--sigma", "0.1")
    assert code == 2
    for argv in (
        ("--n", "2", "--sigma", "nan"),
        ("--n", "2", "--sigma", "inf"),
        ("--n", "2", "--sigma", "nan", "--method", "mc"),
        ("--n", "0", "--sigma", "0.1", "--method", "mc", "--samples", "10"),
        ("--n", "2", "--sigma", "0", "--order", "0"),
    ):
        code, out, err = run_cli(capsys, "fidelity", *argv)
        assert code == 2, argv
        assert out == "" and "error:" in err
    for grid in ("1:inf:3", "nan:10:3"):  # argparse rejects the flag itself
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--kind", "fig5a", "--grid", grid, "--log"])
        assert exc.value.code == 2
        assert "finite" in capsys.readouterr().err


def test_run_reports_tiny_herald_probability(capsys):
    # click probabilities of 2.7e-16 and 3.0e-29 are real outcomes, not
    # dust; the second has amplitudes below 1e-14 on every branch
    for n, purcell in (("10", "0.2"), ("20", "0.24")):
        code, out, _ = run_cli(capsys, "run", "--n", n, "--purcell", purcell)
        assert code == 0
        rep = json.loads(out)
        assert rep["closed_form_success"] > 0
        assert rep["herald_probability"] == pytest.approx(rep["closed_form_success"], rel=1e-9)
        assert 0.0 <= rep["weighted_fidelity"] <= 1.0
        assert rep["weighted_fidelity"] == pytest.approx(1.0, abs=1e-10)
        assert [oc["detector"] for oc in rep["outcomes"]] == ["D1", "D2"]
        for oc in rep["outcomes"]:
            assert 0.0 <= oc["fidelity"] <= 1.0
            assert oc["fidelity"] == pytest.approx(1.0, abs=1e-10)


def test_exit_code_physics(tmp_path, capsys):
    f = tmp_path / "trip.wgq"
    f.write_text(NORM_TRIP)
    code, _, err = run_cli(capsys, "exec", str(f))
    assert code == 4
    assert "physics error" in err


def test_sweep_csv_stdout(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--kind", "fig5a", "--grid", "1:100:3", "--log")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "purcell,d=0,d=0.1,d=0.15"
    assert len(lines) == 4
    assert lines[1].split(",")[0] == "1"


def test_sweep_svg(tmp_path):
    svg = tmp_path / "f.svg"
    csv = tmp_path / "f.csv"
    # negative bounds need the --grid= spelling, argparse sees a flag otherwise
    argv = ["sweep", "--kind", "fig5b", "--grid=-0.3:0.3:5", "--out", str(csv)]
    code = main(argv + ["--svg", str(svg)])
    assert code == 0
    assert csv.read_text().startswith("detuning,")
    assert svg.stat().st_size > 500
    assert svg.read_text().startswith("<?xml")
    root = ET.parse(svg).getroot()
    assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) == 3
    # identical invocations give identical bytes
    again = tmp_path / "again.svg"
    assert main(argv + ["--svg", str(again)]) == 0
    assert again.read_bytes() == svg.read_bytes()
    # a flat grid (x = [5, 5]) must not break the chart's axis scaling
    flat = tmp_path / "flat.svg"
    code = main(["sweep", "--kind", "fig5a", "--grid", "5:5:2", "--log",
                 "--out", str(csv), "--svg", str(flat)])
    assert code == 0
    assert flat.stat().st_size > 500
    ET.parse(flat)


def test_sweep_svg_unwritable_path(tmp_path, capsys):
    target = tmp_path / "missing" / "f.svg"
    code, _, err = run_cli(capsys, "sweep", "--kind", "fig5a", "--grid", "1:10:2",
                           "--svg", str(target))
    assert code == 1
    assert err.startswith("io error:")


def test_fidelity_report_and_mc_determinism(capsys):
    code, out, _ = run_cli(capsys, "fidelity", "--n", "2", "--purcell", "100",
                           "--sigma", "0.15")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "wgqsim.fidelity/1"
    assert rep["method"] == "gh"
    assert rep["value"] == pytest.approx(0.965091161726441, abs=1e-9)

    args = ["fidelity", "--n", "2", "--purcell", "100", "--sigma", "0.15",
            "--method", "mc", "--samples", "5000", "--seed", "7"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    v1, v2 = json.loads(out1), json.loads(out2)
    assert v1["value"] == v2["value"]
    assert v1["std_error"] == v2["std_error"]
    assert v1["std_error"] > 0


def test_verify_subcommand(capsys):
    code, out, _ = run_cli(capsys, "verify", "--filter", "scatter")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(l.startswith("PASS") for l in lines[:-1])
    assert lines[-1].endswith("checks passed")
    code, out, _ = run_cli(capsys, "verify", "--filter", "no-such-check")
    assert code == 2


NUMPY_PROBE = """\
import contextlib, io, sys
from wgqsim.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "numpy" in sys.modules)
"""


@pytest.mark.parametrize("argv", [
    ["coeffs"], ["run", "--n", "3"], ["exec", "klm3"],
    ["sweep", "--kind", "fig5a", "--grid=2:500:40", "--log"],
])
def test_circuit_subcommands_do_not_import_numpy(argv):
    src = os.path.dirname(os.path.dirname(wgqsim.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.stdout == "0 False\n", proc.stderr


def test_package_runs_as_module():
    src = os.path.dirname(os.path.dirname(wgqsim.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    runs = [
        subprocess.run(
            [sys.executable, "-m", module, "coeffs", "--purcell", "100"],
            env=env, capture_output=True, timeout=60,
        )
        for module in ("wgqsim", "wgqsim.cli")
    ]
    assert runs[0].returncode == runs[1].returncode == 0, runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
