import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from quasigor import cli, linkage
from quasigor.errors import InputError
from quasigor.reporting import VerificationReport
from quasigor.segre import data_text

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_DIR = ROOT / "perfbench" / "reference"

D1 = "2*P(0) - 5/8*P(1) - 5/8*P(2) - 5/8*P(3)"
D2 = (
    "5*P(0) - 1/2*P(1) - 1/2*P(2) - 1/2*P(3) - 1/2*P(4) - 1/2*P(5)"
    " - 1/2*P(6) - 1/2*P(7) - 1/2*P(8) - 1/2*P(9)"
)


@pytest.fixture(scope="module")
def schema():
    return json.loads(data_text("report_schema.json"))


@pytest.fixture
def small_ring(tmp_path):
    ring = tmp_path / "ring.txt"
    ring.write_text("field Q; vars x,y\n")
    ideal = tmp_path / "ideal.txt"
    ideal.write_text("x^2\nx*y\n")
    unit = tmp_path / "unit.txt"
    unit.write_text("x\n1\n")
    return ring, ideal, unit


@pytest.fixture
def segre_files(tmp_path):
    ring = tmp_path / "segre_ring.txt"
    ring.write_text(data_text("segre_ring.txt"))
    ideal = tmp_path / "segre_ideal.txt"
    ideal.write_text(data_text("segre_ideal.txt"))
    link = tmp_path / "segre_link.txt"
    link.write_text(data_text("segre_link_ideal.txt"))
    return ring, ideal, link


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ideal_gb_and_codim(capsys, small_ring):
    ring, ideal, _ = small_ring
    code, out, _ = run(capsys, ["ideal", "gb", "--ring", str(ring), str(ideal)])
    assert code == 0
    assert out.splitlines() == ["x*y", "x^2"]
    code, out, _ = run(capsys, ["ideal", "codim", "--ring", str(ring), str(ideal)])
    assert (code, out.strip()) == (0, "1")


def test_member_of_unit_ideal(capsys, small_ring):
    ring, _, unit = small_ring
    code, out, _ = run(capsys, ["ideal", "member", "--ring", str(ring), str(unit), "1"])
    assert (code, out.strip()) == (0, "true")


def test_shipped_link_ideal_codim_is_six(capsys, tmp_path):
    ring = tmp_path / "ring.txt"
    ring.write_text(data_text("deformation_ring.txt"))
    link = tmp_path / "link.txt"
    link.write_text(data_text("link_ideal.txt"))
    code, out, _ = run(capsys, ["ideal", "codim", "--ring", str(ring), str(link)])
    assert (code, out.strip()) == (0, "6")


def test_shipped_segre_hilbert(capsys, segre_files):
    ring, ideal, _ = segre_files
    code, out, _ = run(capsys, ["ideal", "hilbert", "--ring", str(ring), str(ideal), "2"])
    assert (code, out.strip()) == (0, "36")


def test_ideal_json_validates(capsys, small_ring, schema):
    ring, ideal, _ = small_ring
    code, out, _ = run(
        capsys, ["ideal", "colon", "--ring", str(ring), str(ideal), str(ideal), "--json"]
    )
    assert code == 0
    jsonschema.validate(json.loads(out), schema)


def test_remaining_ideal_ops(capsys, small_ring, tmp_path):
    ring, ideal, _ = small_ring
    other = tmp_path / "other.txt"
    other.write_text("y\n")
    code, out, _ = run(capsys, ["ideal", "dim", "--ring", str(ring), str(ideal)])
    assert (code, out.strip()) == (0, "1")
    code, out, _ = run(
        capsys, ["ideal", "intersect", "--ring", str(ring), str(ideal), str(other)]
    )
    assert (code, out.strip()) == (0, "x*y")
    code, out, _ = run(capsys, ["ideal", "regular", "--ring", str(ring), str(other), "x"])
    assert (code, out.strip()) == (0, "true")
    ring3 = tmp_path / "ring3.txt"
    ring3.write_text("field Q; vars x,y,t\n")
    curve = tmp_path / "curve.txt"
    curve.write_text("x-t\ny-t^2\n")
    code, out, _ = run(
        capsys, ["ideal", "eliminate", "--ring", str(ring3), str(curve), "t"]
    )
    assert (code, out.strip()) == (0, "x^2 - y")


def test_gb_of_zero_ideal(capsys, small_ring, tmp_path):
    ring, _, _ = small_ring
    zero = tmp_path / "zero.txt"
    zero.write_text("0\n")
    code, out, err = run(capsys, ["ideal", "gb", "--ring", str(ring), str(zero)])
    assert (code, out, err) == (0, "\n", "")
    code, out, _ = run(capsys, ["ideal", "gb", "--ring", str(ring), str(zero), "--json"])
    assert code == 0
    assert json.loads(out)["result"] == []


def test_divisor_floor_and_h0(capsys):
    code, out, _ = run(capsys, ["divisor", "floor", D2, "--n", "3"])
    assert code == 0
    assert out.strip().startswith("15*P(0)")
    code, out, _ = run(capsys, ["divisor", "h0", D2, "--n", "4"])
    assert (code, out.strip()) == (0, "3")


def test_divisor_ops(capsys):
    code, out, _ = run(capsys, ["divisor", "gens", D2, "--bound", "18"])
    assert (code, out.strip()) == (0, "generators: 2,2,9; relation: 18")
    code, out, _ = run(capsys, ["divisor", "watanabe", D1, "--a", "5"])
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run(capsys, ["divisor", "h1", D2, "--n", "3"])
    assert (code, out.strip()) == (0, "2")
    code, out, _ = run(capsys, ["divisor", "segre-h2", D1, D2, "--n", "3"])
    assert code == 0
    assert out.splitlines()[0] == "2"
    assert "non-Cohen-Macaulay witness" in out
    code, out, _ = run(capsys, ["divisor", "segre-qg", "elliptic", "elliptic", "--a", "0"])
    assert code == 0
    assert out.startswith("true")


def test_divisor_gens_without_sections(capsys):
    # deg D < 0: the section ring is k, and no bound would show a section
    code, out, err = run(capsys, ["divisor", "gens", "--bound", "3", "--", "-P(0)"])
    assert (code, out, err) == (0, "generators: none; relation: none\n", "")
    # deg D > 0 but no section up to the bound: one warning line on stderr
    code, out, err = run(capsys, ["divisor", "gens", "--bound", "1", "--", "1/2*P(0) - 1/3*P(1)"])
    assert (code, out) == (0, "generators: none; relation: none\n")
    assert err == "warning: degree bound too small to see any section\n"


def test_divisor_rejects_non_ascii_digits(capsys):
    code, out, err = run(capsys, ["divisor", "h0", "--", "P(\u0663)"])
    assert (code, out) == (1, "")
    assert err == "error: unexpected character '\u0663' (line 1, column 3)\n"


def test_divisor_json_validates(capsys, schema):
    code, out, _ = run(capsys, ["divisor", "gens", D1, "--bound", "24", "--json"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    assert payload["result"] == {"generators": [3, 8, 8], "relations": [24]}


def test_verify_quotient_json_validates(capsys, schema):
    code, out, _ = run(capsys, ["verify-quotient", "--json"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    assert payload["mu_canonical"] == 1
    assert payload["quasi_gorenstein"] is True
    assert payload["status"] == "pass"
    assert payload["timings_ms"] == {}  # deterministic by default


def test_verify_quotient_f2_matches_reference(capsys):
    code, out, _ = run(capsys, ["verify-quotient", "--field", "F2", "--json"])
    assert code == 0
    payload = json.loads(out)
    del payload["timings_ms"]
    reference = (REFERENCE_DIR / "verify-quotient-F2.json").read_text(encoding="utf-8")
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == reference


def run_module(argv, timeout):
    """``python -m quasigor`` on this checkout's sources, in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "quasigor", *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


def test_python_dash_m_from_a_checkout():
    done = run_module(["--help"], timeout=60)
    assert done.returncode == 0, done.stderr
    assert "verify-counterexample" in done.stdout


def test_dimension_of_thirty_variables_answers_at_once(tmp_path):
    ring = tmp_path / "ring.txt"
    ring.write_text("field Q; vars x1..x30\n")
    ideal = tmp_path / "ideal.txt"
    ideal.write_text("".join(f"x{i}\n" for i in range(1, 31)))
    # a timeout, so that a slow search fails here instead of holding the suite
    done = run_module(["ideal", "dim", "--ring", str(ring), str(ideal)], timeout=30)
    assert (done.returncode, done.stdout.strip()) == (0, "0"), done.stderr


def test_verify_quotient_experimental_field(capsys, schema):
    code, out, _ = run(capsys, ["verify-quotient", "--field", "Fp:5", "--json"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    assert payload["status"] == "experimental"
    assert all(step["pass"] is None for step in payload["steps"])


def test_output_is_deterministic(capsys, small_ring):
    ring, ideal, _ = small_ring
    argv = ["ideal", "gb", "--ring", str(ring), str(ideal), "--json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    _, q1, _ = run(capsys, ["verify-quotient", "--json"])
    _, q2, _ = run(capsys, ["verify-quotient", "--json"])
    assert q1 == q2


def test_timings_flag_adds_timings(capsys):
    code, out, _ = run(capsys, ["verify-quotient", "--json", "--timings"])
    assert code == 0
    assert json.loads(out)["timings_ms"]


def test_exit_code_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("field Q; vars x; vars x\n")
    ideal = tmp_path / "i.txt"
    ideal.write_text("x\n")
    code, _, err = run(capsys, ["ideal", "gb", "--ring", str(bad), str(ideal)])
    assert code == 1
    assert "duplicate" in err
    code, _, err = run(capsys, ["ideal", "gb", "--ring", str(tmp_path / "nope"), str(ideal)])
    assert code == 1


def test_exit_code_unsupported(capsys, tmp_path):
    ring = tmp_path / "ring.txt"
    ring.write_text("field Q; vars x,y; weights 1,0\n")
    ideal = tmp_path / "i.txt"
    ideal.write_text("x\n")
    code, _, err = run(capsys, ["ideal", "hilbert", "--ring", str(ring), str(ideal), "2"])
    assert code == 3
    assert "weight-0" in err


def test_exit_code_bad_hilbert_degree(capsys, small_ring):
    ring, ideal, _ = small_ring
    code, out, err = run(capsys, ["ideal", "hilbert", "--ring", str(ring), str(ideal), "abc"])
    assert (code, out) == (1, "")
    assert err == "error: bad Hilbert degree 'abc', expected an integer\n"


@pytest.mark.parametrize("command", ["verify-counterexample", "verify-quotient"])
def test_exit_code_bad_field_label(capsys, command):
    # a space, a sign or a non-ASCII digit used to be read as F2
    for label in ("Fp: 2", "Fp:+2", "F\u0662"):
        code, out, err = run(capsys, [command, "--field", label])
        assert (code, out) == (1, "")
        assert err == f"error: bad field label {label!r} (expected Q, F<p> or Fp:<p>)\n"


def test_exit_code_empty_segre_range(capsys):
    argv = ["divisor", "segre-qg", "elliptic", "elliptic", "--a", "0", "--range"]
    code, out, err = run(capsys, argv + ["5:1"])
    assert (code, out) == (1, "")
    assert err == "error: empty --range '5:1', expected LO <= HI\n"
    code, out, _ = run(capsys, argv + ["3:3"])
    assert code == 0
    assert out.startswith("true")


def test_usage_errors_exit_one(capsys):
    for argv in ([], ["divisor", "nope", "P(0)"], ["divisor", "gens"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, ""), argv
        assert "usage:" in err
    # an expression starting with '-' reads as an option unless it follows '--'
    code, _, err = run(capsys, ["divisor", "gens", "-P(0)", "--bound", "3"])
    assert code == 1
    assert "usage:" in err
    code, out, _ = run(capsys, ["divisor", "h0", "--n", "2", "--", "-P(0) + 3*P(1)"])
    assert (code, out.strip()) == (0, "5")


def test_exit_code_failing_step(capsys, monkeypatch):
    def refuse(ambient, link):
        raise InputError("no link today")

    monkeypatch.setattr(linkage, "build_linkage", refuse)
    code, out, err = run(capsys, ["verify-quotient", "--field", "F2"])
    assert (code, out) == (2, "")
    assert err == "error: step 'linkage-colon': no link today\n"


def test_trace_and_timings_as_text(capsys):
    code, out, err = run(
        capsys, ["verify-quotient", "--field", "Fp:5", "--trace", "--timings"]
    )
    assert code == 0
    lines = out.splitlines()
    assert "  status: experimental, no assertions" in lines
    assert any(line.startswith("  time: ") for line in lines)
    for label in ("codim-link", "codim-ambient", "linkage-colon", "canonical-min-gens"):
        assert label in err


def test_exit_code_verification_failure(capsys, monkeypatch):
    broken = VerificationReport(command="verify-quotient", field_label="Q")
    broken.add("canonical-min-gens", 2, 1, asserted=True)
    broken.summary = {
        "codim_c": 6,
        "codim_a": 6,
        "codims_equal": True,
        "mu_canonical": 2,
        "quasi_gorenstein": False,
    }
    monkeypatch.setattr(cli, "verify_quotient_ring", lambda field: broken)
    code, _, err = run(capsys, ["verify-quotient"])
    assert code == 2
    assert "canonical-min-gens" in err


def test_trace_goes_to_stderr(capsys, small_ring):
    ring, ideal, _ = small_ring
    code, out, err = run(
        capsys, ["ideal", "gb", "--ring", str(ring), str(ideal), "--trace"]
    )
    assert code == 0
    assert out.splitlines() == ["x*y", "x^2"]
    assert "pair" in err or "reduced" in err
