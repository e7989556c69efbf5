import json

import numpy as np
import pytest

from hardysplit import corpus
from hardysplit.approx import single_pole_approx
from hardysplit.cayley import BoundarySamples, circle_grid
from hardysplit.cli import main
from hardysplit.rational import LaurentRational
from hardysplit.serialize import to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_split_command_json_and_determinism(capsys):
    code1, out1 = run(capsys, "split", "--corpus", "lorentzian", "--p", "0.75")
    code2, out2 = run(capsys, "split", "--corpus", "lorentzian", "--p", "0.75")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical reruns
    report = json.loads(out1)
    assert report["m"] == 2
    assert report["bound_ratio"] <= 2 * np.pi / 0.25
    assert sorted(report["real_poles"]) == report["real_poles"]


def test_split_reads_atom_file(tmp_path, capsys):
    atom = tmp_path / "atom.json"
    atom.write_text(LaurentRational.from_dict({-1: 1.0, 0: 2.0, 1: 1.0}).to_json())
    code, out = run(capsys, "split", "--atom", str(atom), "--p", "0.75",
                    "--phi-grid", "16")
    assert code == 0
    assert json.loads(out)["m"] == 2


def test_spectrum_command(capsys):
    code, out = run(capsys, "spectrum", "--corpus", "upper_double_pole")
    assert code == 0
    report = json.loads(out)
    assert report["neg_energy_ratio"] < 1e-6
    assert "e^{-ixt}" in report["convention"]


def test_spectrum_csv_flag(capsys):
    code, out = run(capsys, "spectrum", "--corpus", "upper_double_pole",
                    "--deltas", "0.5,1.0", "--csv")
    assert code == 0
    assert out.splitlines()[0] == "t,abs_F,bound"


def test_approx_single_pole(capsys):
    code, out = run(capsys, "approx", "--single-pole", "--N", "2",
                    "--corpus", "upper_triple_pole")
    assert code == 0
    report = json.loads(out)
    assert report["N"] == 2
    assert report["lp_residual_p"] < 1.0


def test_verify_expected_negative_is_ok(capsys):
    code, out = run(capsys, "verify", "--corpus", "lower_double_pole",
                    "--check", "spectrum")
    assert code == 0
    report = json.loads(out)
    assert report["checks"][0]["in_Hplus"] is False
    assert report["all_ok"]


def test_bad_p_exits_one(capsys):
    code, _ = run(capsys, "decompose", "--p", "1.5", "--corpus", "lorentzian")
    assert code == 1


def test_unknown_corpus_exits_one(capsys):
    code, _ = run(capsys, "verify", "--corpus", "nonesuch")
    assert code == 1


def test_decompose_zero_input(tmp_path, capsys):
    n = 64
    samples = BoundarySamples(n=n, values=np.zeros(n, dtype=complex),
                              p=0.75, domain_tag="line")
    path = tmp_path / "zero.json"
    path.write_text(samples.to_json())
    code, out = run(capsys, "decompose", "--input", str(path), "--p", "0.75")
    assert code == 0
    report = json.loads(out)
    assert report["splits"] == [] and report["budget"] == 0.0


def test_output_file_written(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out = run(capsys, "spectrum", "--corpus", "zero",
                    "--output", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["neg_energy_ratio"] == 0.0


def test_serializer_golden_fragment():
    # 17-significant-digit floats, objects in insertion order
    text = to_json({"a": 1.0 / 3.0, "z": complex(1, -2), "n": [1, 2]})
    assert text == ('{"a": 0.33333333333333331, '
                    '"z": {"re": 1.0, "im": -2.0}, "n": [1, 2]}')


def test_approx_single_pole_high_degree_is_finite_and_exact_off_axis(capsys):
    code, out = run(capsys, "approx", "--single-pole", "--N", "2", "--degree", "256",
                    "--corpus", "upper_triple_pole")
    assert code == 0
    assert '"inf"' not in out and '"nan"' not in out
    assert json.loads(out)["rational"]["zero_order"] == 3
    entry = corpus.get("upper_triple_pole")
    res = single_pole_approx(entry.boundary, 2, 256, 0.75)
    R = res.rational
    assert R.neg_degree == 0 and R.zero_order == 3
    # f - R is analytic and bounded above the line: its sup there is the line's
    rng = np.random.default_rng(2)
    z = rng.uniform(-20.0, 20.0, 200) + 1j * rng.uniform(0.01, 5.0, 200)
    assert np.max(np.abs(R.eval(z) - entry.f(z))) <= res.sup_residual


def test_verify_profile_records_diverged_height(capsys):
    code, out = run(capsys, "verify", "--corpus", "lower_double_pole",
                    "--check", "profile")
    assert code == 0
    check = json.loads(out)["checks"][0]
    # the pole i lies on the line y = 1
    assert check["diverged_heights"] == [1.0]
    assert check["values"][2] is None
    assert all(v > 0 for i, v in enumerate(check["values"]) if i != 2)
