import json
import math

import numpy as np
import pytest

from hardysplit import corpus
from hardysplit.approx import single_pole_approx
from hardysplit.cayley import BoundarySamples, circle_grid
from hardysplit.cli import main
from hardysplit.errors import BoundNotMet, ScheduleStall
from hardysplit.rational import LaurentRational
from hardysplit.serialize import to_json
from hardysplit.spectral import proof_growth_constant


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
    # shortest round-tripping floats, objects in insertion order
    text = to_json({"a": 1.0 / 3.0, "z": complex(1, -2), "n": [1, 2]})
    assert text == ('{"a": 0.3333333333333333, '
                    '"z": {"re": 1.0, "im": -2.0}, "n": [1, 2]}')


def _bits(v):
    """Kind and exact bit pattern of a value or of its JSON image."""
    if isinstance(v, dict):
        return ("c", float(v["re"]).hex(), float(v["im"]).hex())
    if isinstance(v, (bool, np.bool_)):
        return ("b", bool(v))
    if isinstance(v, (int, np.integer)):
        return ("i", int(v))
    if isinstance(v, (complex, np.complexfloating)):
        return ("c", float(v.real).hex(), float(v.imag).hex())
    return ("f", float(v).hex())


def test_serializer_round_trips_exactly():
    scalars = [1.0 / 3.0, 0.1, 5e-324, -0.0, 1e16, 1.7976931348623157e308,
               np.float64(2.0 / 3.0), np.int64(-7), np.bool_(True),
               np.complex128(0.1 - 1j / 3.0), complex(-0.0, 5e-324)]
    for x in scalars:
        assert _bits(json.loads(to_json(x))) == _bits(x), x
    rng = np.random.default_rng(5)
    real = rng.normal(size=7) * 10.0 ** rng.integers(-300, 300, 7)
    for arr in (real, real + 1j * rng.normal(size=7), np.arange(3)):
        assert [_bits(v) for v in json.loads(to_json(arr))] == [_bits(v) for v in arr]


def test_serializer_writes_non_finite_as_tokens():
    text = to_json([math.inf, -math.inf, math.nan, np.float64("inf"),
                    complex(math.nan, math.inf)])
    assert text == '[Infinity, -Infinity, NaN, Infinity, {"re": NaN, "im": Infinity}]'


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


CORPUS_COMMANDS = [
    ("decompose", "--corpus", "lorentzian"),
    ("approx", "--single-pole", "--corpus", "upper_triple_pole"),
    ("approx", "--corpus", "lorentzian"),
    ("spectrum", "--corpus", "upper_double_pole"),
    ("spectrum", "--corpus", "upper_double_pole", "--deltas", "0.5,1.0"),
    *(("split", "--corpus", name) for name in corpus.names()
      if corpus.get(name).laurent is not None),
    *(("verify", "--corpus", name) for name in corpus.names()),
]


@pytest.mark.parametrize("argv", CORPUS_COMMANDS, ids=" ".join)
def test_cli_reports_are_strict_json(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    json.loads(out, parse_constant=_reject_constant)


@pytest.mark.parametrize("exc, exit_code", [(BoundNotMet, 2), (ScheduleStall, 1)])
def test_library_invariant_errors_set_the_exit_code(monkeypatch, capsys, exc, exit_code):
    import hardysplit.cli as cli

    def failing(*args, **kwargs):
        raise exc("forced")

    monkeypatch.setattr(cli, "decompose", failing)
    code, out = run(capsys, "decompose", "--corpus", "lorentzian")
    assert code == exit_code and out == ""


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


def test_spectrum_csv_bound_is_the_proof_constant(capsys):
    p = 0.75
    code, out = run(capsys, "spectrum", "--corpus", "upper_double_pole",
                    "--deltas", "0.5,1.0", "--csv", "--p", str(p))
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    C = proof_growth_constant(p)
    assert C > 0 and rows[0][0] == "0" and float(rows[0][2]) == 0.0
    for t, _, bound in rows[1:]:
        assert float(bound) == pytest.approx(C * float(t) ** (1.0 / p - 1.0),
                                             rel=1e-15)
    code, out = run(capsys, "spectrum", "--corpus", "upper_double_pole",
                    "--deltas", "0.5,1.0", "--p", str(p))
    assert code == 0 and json.loads(out)["growth_C"] == C


def test_approx_single_pole_degree_past_the_grid_exits_one(capsys):
    code = main(["approx", "--single-pole", "--degree", "4096",
                 "--corpus", "upper_triple_pole"])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: degree 4096 must be < n/2")


def test_tol_reaches_split_atom_only(monkeypatch, capsys):
    import hardysplit.cli as cli

    seen = {}
    real = cli.split_atom

    def spy(R, p, phi_candidates, tol):
        seen["tol"] = tol
        return real(R, p, phi_candidates=phi_candidates, tol=tol)

    monkeypatch.setattr(cli, "split_atom", spy)
    code, _ = run(capsys, "split", "--corpus", "lorentzian", "--tol", "3e-5")
    assert code == 0 and seen["tol"] == 3e-5
    for command in ("decompose", "approx", "spectrum", "verify"):
        with pytest.raises(SystemExit):
            main([command, "--corpus", "lorentzian", "--tol", "1e-4"])
