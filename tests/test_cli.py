"""Command line interface: parsing, reports, exit codes, schema."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from conftest import random_tables
from garpkit.cli import (
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_VIOLATION,
    dataset_fingerprint,
    main,
    parse_input,
)

BASE_CSV = """t,p1,p2,x1,x2
1,1,1,1,1
2,2,2,2,2
"""

VIOL_CSV = """t,p1,p2,x1,x2
1,2,1,2,1
2,1,2,1,2
"""

# GARP fails, so verify never reaches the verifiers.
THREE_CSV = VIOL_CSV + "3,1,1,1,1\n"


@pytest.fixture
def base_path(tmp_path):
    path = tmp_path / "base.csv"
    path.write_text(BASE_CSV)
    return str(path)


@pytest.fixture
def viol_path(tmp_path):
    path = tmp_path / "viol.csv"
    path.write_text(VIOL_CSV)
    return str(path)


@pytest.fixture
def three_path(tmp_path):
    path = tmp_path / "three.csv"
    path.write_text(THREE_CSV)
    return str(path)


def run_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def random_csv(path, rng, n_obs, n_goods) -> str:
    """Write a ``random_tables`` dataset to ``path`` as CSV; return the path."""
    prices, bundles = random_tables(rng, n_obs, n_goods)
    header = ["t"] + [f"p{i}" for i in range(1, n_goods + 1)] + [f"x{i}" for i in range(1, n_goods + 1)]
    path.write_text(",".join(header) + "\n" + "".join(
        ",".join([str(t + 1), *p, *x]) + "\n" for t, (p, x) in enumerate(zip(prices, bundles))))
    return str(path)


def test_parse_csv_exact_lane(base_path):
    ds = parse_input(base_path)
    assert ds.exact and ds.n_observations == 2 and ds.n_goods == 2
    assert ds.prices[1][0] == Fraction(2)


def test_parse_json_input(tmp_path):
    path = tmp_path / "d.json"
    path.write_text('{"prices": [[1, 0.5]], "bundles": [[2, 4]]}')
    ds = parse_input(str(path))
    assert ds.exact and ds.prices[0][1] == Fraction(1, 2)


def test_parse_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    from garpkit.errors import ParseError
    with pytest.raises(ParseError, match="header"):
        parse_input(str(path))


def test_parse_rejects_bad_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,p1,x1\n1,2,zebra\n")
    from garpkit.errors import ParseError
    with pytest.raises(ParseError) as exc:
        parse_input(str(path))
    assert exc.value.row == 2 and exc.value.column == "x1"


def test_check_garp_verdicts_and_exit_codes(capsys, base_path, viol_path):
    code, report = run_json(capsys, "check-garp", base_path)
    assert code == EXIT_OK
    assert report["results"]["holds"] is True

    code, report = run_json(capsys, "check-garp", viol_path)
    assert code == EXIT_VIOLATION
    assert report["results"]["holds"] is False
    assert report["results"]["witness"]["cycle"] == [1, 2, 1]


def test_check_garp_at_deflated_budget(capsys, viol_path):
    code, report = run_json(capsys, "check-garp", viol_path, "--efficiency", "0.8")
    assert code == EXIT_OK and report["results"]["holds"] is True
    assert report["results"]["efficiency"] == ["4/5", "4/5"]


def test_efficiency_vector_argument(capsys, viol_path):
    code, report = run_json(capsys, "check-garp", viol_path,
                            "--efficiency", "0.8,1")
    assert report["results"]["efficiency"] == ["4/5", "1"]


def test_ccei_report(capsys, viol_path):
    code, report = run_json(capsys, "ccei", viol_path)
    assert code == EXIT_OK
    results = report["results"]
    assert results["ccei_exact"] == "4/5"
    assert results["attained"] is True
    assert abs(results["ccei_bisect"] - 0.8) <= 1e-9
    assert results["agreement"] is True
    assert results["witness_probe"] == "9/10"
    assert results["breakpoints"] == ["4/5", "1"]


def test_afriat_report(capsys, base_path, viol_path):
    code, report = run_json(capsys, "afriat", base_path)
    assert code == EXIT_OK
    assert report["results"]["phi"] == ["-4", "0"]
    assert report["results"]["lambda"] == ["2", "1"]
    assert report["results"]["worst_residual"] <= 0

    code, report = run_json(capsys, "afriat", viol_path)
    assert code == EXIT_VIOLATION
    assert report["results"]["feasible"] is False
    assert report["results"]["witness"]["cycle"] == [1, 2, 1]


def test_verify_clean(capsys, base_path):
    code, report = run_json(capsys, "verify", base_path,
                            "--samples", "150", "--seed", "9")
    assert code == EXIT_OK
    results = report["results"]
    assert results["rationalization"]["clean"] is True
    assert results["cost_rationalization"]["clean"] is True
    assert results["duality_consistent"] is True
    for block in ("rationalization", "cost_rationalization"):
        counts = [results[block][k] for k in ("exact_certified", "nudged", "dropped")]
        assert all(isinstance(c, int) and c >= 0 for c in counts)
    # The observed bundles are decided from their levels, not sampled: each
    # budget counts its 150 proposals, the zero bundle and at least its own
    # bundle, and exact_certified counts none of the observed bundles.
    rat = results["rationalization"]
    assert all(o["samples"] >= 152 for o in rat["per_observation"])
    assert rat["exact_certified"] <= 2 * 151


def test_verify_counts_are_zero_in_float_mode(capsys, base_path):
    code, report = run_json(capsys, "verify", base_path, "--float", "--samples", "50")
    assert code == EXIT_OK
    for block in ("rationalization", "cost_rationalization"):
        assert [report["results"][block][k] for k in ("exact_certified", "nudged", "dropped")] \
            == [0, 0, 0]


def test_oracle_subcommand(capsys, viol_path):
    code, report = run_json(capsys, "oracle", viol_path)
    assert code == EXIT_VIOLATION
    assert report["results"]["garp_holds"] is False
    assert [1, 2, 1] in report["results"]["violating_cycles"]
    assert report["results"]["ccei"] == "4/5"


def test_float_mode_flag(capsys, viol_path):
    code, report = run_json(capsys, "ccei", viol_path, "--float")
    assert report["mode"] == "float"
    assert report["results"]["ccei_exact"] == pytest.approx(0.8)


def test_input_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,p1,x1\n1,0,1\n")
    code, report = run_json(capsys, "check-garp", str(path))
    assert code == EXIT_INPUT_ERROR
    err = report["results"]["error"]
    assert err["type"] == "NonpositivePriceError"
    assert err["observation_label"] == 1 and err["good_label"] == 1


def test_missing_file_exit_code(capsys, tmp_path):
    code, report = run_json(capsys, "check-garp", str(tmp_path / "nope.csv"))
    assert code == EXIT_INPUT_ERROR
    assert report["results"]["error"]["type"] == "ParseError"


@pytest.mark.parametrize("name,text,error,message", [
    ("base.txt", BASE_CSV, "ParseError", "cannot infer input format"),
    ("empty.csv", "", "ParseError", "empty file"),
    ("blank.csv", "\n ,\n", "ParseError", "empty file"),
    ("names.csv", "t,q1,y1\n1,1,1\n", "ParseError", "header must be t,p1,x1"),
    ("goods.json", '{"prices": [[]], "bundles": [[]]}', "ShapeMismatchError",
     "at least one good is required"),
    ("goods.csv", "t\n1\n", "ShapeMismatchError", "at least one good is required"),
])
def test_unreadable_inputs_are_input_errors(capsys, tmp_path, report_validator, name, text,
                                            error, message):
    path = tmp_path / name
    path.write_text(text)
    for command in _COMMANDS:
        report = _assert_input_error(capsys, report_validator, [*command, str(path)])
        assert report["results"]["error"]["type"] == error
        assert message in report["results"]["error"]["message"]


def test_bad_efficiency_argument(capsys, base_path):
    code, report = run_json(capsys, "check-garp", base_path,
                            "--efficiency", "zebra")
    assert code == EXIT_INPUT_ERROR


def test_efficiency_too_long_to_write_is_an_input_error(capsys, base_path,
                                                         report_validator):
    code, report = run_json(capsys, "check-garp", base_path,
                            "--efficiency", "1e-5000")
    assert code == EXIT_INPUT_ERROR
    assert report["results"]["error"]["type"] == "GarpkitError"
    assert "4300" not in report["results"]["error"]["message"]
    assert not list(report_validator.iter_errors(report))


def test_out_file_written_atomically(tmp_path, base_path):
    out = tmp_path / "report.json"
    code = main(["ccei", base_path, "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["command"] == "ccei"
    assert not (tmp_path / "report.json.tmp").exists()


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("lane", [[], ["--float"]])
def test_ccei_report_is_the_same_in_a_file_and_on_stdout(capsys, tmp_path, lane, fmt):
    # Both go through one streamed writer; the O(T^2) breakpoints span
    # several of its blocks.
    table = random_csv(tmp_path / "random.csv", np.random.default_rng(8), 100, 3)
    argv = ["ccei", table, *lane, "--format", fmt]
    assert main(argv) == EXIT_OK
    printed = capsys.readouterr().out
    out = tmp_path / "report.out"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode("utf-8")
    assert sorted(os.listdir(tmp_path)) == ["random.csv", "report.out"]
    if fmt == "json":
        assert len(json.loads(printed)["results"]["breakpoints"]) > 2 * 2048


def test_a_failed_report_write_leaves_no_file(tmp_path):
    from garpkit.cli import _atomic_write

    def pieces():
        yield "{"
        raise RuntimeError("encoding failed")

    with pytest.raises(RuntimeError):
        _atomic_write(str(tmp_path / "report.json"), pieces())
    assert list(tmp_path.iterdir()) == []


def test_a_report_that_cannot_be_written_is_an_error_report_on_stdout(capsys, tmp_path,
                                                                      base_path):
    out = str(tmp_path / "missing" / "report.txt")
    code = main(["check-garp", base_path, "--out", out, "--format", "text"])
    assert code == EXIT_INPUT_ERROR
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith(f"error [WriteError]: {out}: cannot write: ")
    assert os.listdir(tmp_path) == ["base.csv"]


def test_unwritable_files_are_write_errors_naming_the_path(capsys, tmp_path, base_path,
                                                           report_validator):
    config = tmp_path / "spec.json"
    config.write_text('{"weights": [0.25, 0.75], "n_observations": 3, "seed": 1}')
    out = str(tmp_path / "missing" / "out")
    for argv in (["ccei", base_path, "--out", out],
                 ["generate", "--config", str(config), "--data-out", out]):
        report = _assert_input_error(capsys, report_validator, argv)
        error = report["results"]["error"]
        assert error["type"] == "WriteError" and error["message"].startswith(out + ": "), argv
    assert sorted(os.listdir(tmp_path)) == ["base.csv", "spec.json"]


def test_a_closed_stdout_exits_2_without_a_traceback(tmp_path):
    # About 290 KB of breakpoints, more than a pipe holds: the writer is
    # still writing when the reader goes away.
    table = random_csv(tmp_path / "t150.csv", np.random.default_rng(150), 150, 10)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    child = subprocess.Popen([sys.executable, "-m", "garpkit.cli", "ccei", "--float", table],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert child.stdout.read(10) == b'{\n  "tool"'
    child.stdout.close()
    stderr = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == EXIT_INPUT_ERROR
    assert stderr == b""


def test_text_that_is_not_utf8_is_a_parse_error_naming_the_file(capsys, tmp_path,
                                                                report_validator):
    path = tmp_path / "latin.csv"
    path.write_bytes("t,p1,x1\n1,1,1\n# caf\u00e9\n".encode("latin-1"))
    for argv in (["check-garp", str(path)],
                 ["generate", "--config", str(path), "--data-out", str(tmp_path / "d.csv")]):
        report = _assert_input_error(capsys, report_validator, argv)
        error = report["results"]["error"]
        assert error["type"] == "ParseError" and error["message"].startswith(str(path)), argv
        assert "utf-8" in error["message"]


def test_float_ccei_report_holds_no_list_of_its_breakpoints(tmp_path):
    # Traced peak of an in-process float `ccei --out` at T=300 (L=10, about
    # 45 000 breakpoints): 5.4-5.5 MB when the breakpoints went through a
    # list, a tuple, a mapped list and a joined report string; 3.12 MB with
    # one array streamed into the file, while the relations and the
    # breakpoints were built with T x T float temporaries; 2.08 MB with
    # both built a block of rows at a time.  numpy reports its buffers to
    # tracemalloc.
    import tracemalloc

    table = random_csv(tmp_path / "random.csv", np.random.default_rng(1), 300, 10)
    argv = ["ccei", table, "--float", "--out", str(tmp_path / "report.json")]
    assert main(argv) == EXIT_OK  # imports and first-use set-up, untraced
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.6e6, f"{peak / 1e6:.2f} MB"


def test_text_format_matches_json_verdict(capsys, viol_path):
    code_t = main(["check-garp", viol_path, "--format", "text"])
    text = capsys.readouterr().out
    code_j, report = run_json(capsys, "check-garp", viol_path)
    assert code_t == code_j
    assert "holds: False" in text
    assert "[1, 2, 1]" in text


def test_text_format_renders_verifications_missing_witnesses_and_errors(capsys, base_path,
                                                                         tmp_path):
    code = main(["verify", base_path, "--samples", "20", "--format", "text"])
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_OK
    assert "witness: none" not in lines
    for key in ("rationalization", "cost_rationalization"):
        assert any(line.startswith(f"{key}: clean=True samples=") and line.endswith(" violations=0")
                   for line in lines), lines
    code = main(["check-garp", base_path, "--format", "text"])
    assert code == EXIT_OK
    assert "witness: none" in capsys.readouterr().out.splitlines()
    code = main(["check-garp", str(tmp_path / "missing.csv"), "--format", "text"])
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_INPUT_ERROR
    assert lines[0].startswith("garpkit ") and lines[-1].startswith("error [ParseError]: ")


@pytest.mark.parametrize("argv, name, text", [
    # Twice the largest bundle, the cost verifier's sampling box, is +inf.
    (["verify", "--samples", "5"], "f.json", '{"prices": [[1, 1]], "bundles": [[0, 1e308]]}'),
    # p[1] . x[1] underflows to zero.
    (["oracle", "--float"], "j.csv", "t,p1,x1\n1,1e-300,1e-300\n2,1,1\n"),
    # The Afriat check's allowance, lam * (p . x + e p . x), is +inf.
    (["afriat", "--float"], "f.json", '{"prices": [[1, 1]], "bundles": [[0, 1e308]]}'),
], ids=["verify-box-overflows", "oracle-float-underflows", "afriat-float-allowance-overflows"])
def test_data_outside_the_float64_range_is_an_input_error(capsys, tmp_path, report_validator,
                                                          argv, name, text):
    path = tmp_path / name
    path.write_text(text)
    code = main(argv + [str(path)])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert code == EXIT_INPUT_ERROR and not err
    error = report["results"]["error"]
    assert error["type"] == "GarpkitError"
    assert "data outside the float64 range" in error["message"]
    assert not list(report_validator.iter_errors(report))


def test_fingerprint_tracks_content_and_lane(base_path, viol_path):
    a = parse_input(base_path)
    b = parse_input(viol_path)
    assert dataset_fingerprint(a) != dataset_fingerprint(b)
    assert dataset_fingerprint(a) == dataset_fingerprint(parse_input(base_path))
    c = parse_input(base_path, exact=False)
    assert dataset_fingerprint(a) != dataset_fingerprint(c)
    # Pinned: the sha256 of the lane and the tables, each number written
    # as a "num/den" string on the exact lane and a JSON number on the
    # float lane.
    for ds in (a, b, c):
        encode = str if ds.exact else float
        payload = json.dumps({
            "mode": "exact" if ds.exact else "float",
            "prices": [[encode(v) for v in row] for row in ds.prices],
            "bundles": [[encode(v) for v in row] for row in ds.bundles],
        }, separators=(",", ":"), sort_keys=True)
        assert dataset_fingerprint(ds) == hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_generate_pipeline(capsys, tmp_path):
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({
        "family": "cobb_douglas",
        "weights": [0.5, 0.5],
        "n_observations": 6,
        "price_range": [0.5, 2.0],
        "income_range": [1.0, 5.0],
        "seed": 11,
    }))
    data_out = tmp_path / "synth.csv"
    code, report = run_json(capsys, "generate", "--config", str(config),
                            "--data-out", str(data_out))
    assert code == EXIT_OK
    assert report["results"]["ccei"] == 1.0
    assert data_out.exists()

    # round-trip: the written dataset scores the same index via the CLI
    code, report = run_json(capsys, "ccei", str(data_out), "--float")
    assert code == EXIT_OK
    assert report["results"]["ccei_exact"] == 1.0


def test_generate_writes_json_that_scores_as_the_csv_does(capsys, tmp_path):
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({
        "family": "cobb_douglas", "weights": [0.3, 0.7], "n_observations": 8,
        "price_range": [0.5, 2.0], "income_range": [1.0, 5.0], "waste": 0.3, "seed": 5,
    }))
    indices = []
    for name in ("d.json", "d.csv"):
        code, report = run_json(capsys, "generate", "--config", str(config),
                                "--data-out", str(tmp_path / name))
        assert code == EXIT_OK
        indices.append(report["results"]["ccei"])
        code, report = run_json(capsys, "ccei", "--float", str(tmp_path / name))
        assert code == EXIT_OK
        indices.append(report["results"]["ccei_exact"])
    assert json.loads((tmp_path / "d.json").read_text()).keys() == {"prices", "bundles"}
    assert indices[0] < 1
    assert indices == [indices[0]] * 4


def test_generate_takes_whole_floats_as_counts_and_seeds(capsys, tmp_path):
    config = tmp_path / "gen.json"
    config.write_text('{"weights": [0.25, 0.75], "n_observations": 3.0, "seed": 2.0}')
    code, report = run_json(capsys, "generate", "--config", str(config),
                            "--data-out", str(tmp_path / "d.csv"))
    assert code == EXIT_OK
    assert report["results"]["observations"] == 3 and report["results"]["seed"] == 2


def test_generate_rejects_unknown_keys(capsys, tmp_path):
    config = tmp_path / "gen.json"
    config.write_text('{"family": "cobb_douglas", "weights": [1.0], '
                      '"n_observations": 2, "price_range": [1, 2], '
                      '"income_range": [1, 2], "zebra": 1}')
    code, report = run_json(capsys, "generate", "--config", str(config),
                            "--data-out", str(tmp_path / "d.csv"))
    assert code == EXIT_INPUT_ERROR
    assert "zebra" in report["results"]["error"]["message"]
    assert report["mode"] == "float"


@pytest.mark.parametrize("value,message", [
    *(pytest.param(value, "generator config must be a JSON object", id=value)
      for value in ["5", "null", "[1]", '"abc"']),
    # An object whose numbers overflow is refused too, not raised out of
    # int() or numpy.
    pytest.param('{"weights": [1.0], "n_observations": 1e400}',
                 "cannot convert float infinity to integer", id="n_observations-1e400"),
    pytest.param('{"weights": [1.0], "n_observations": 3, "price_range": [1, 1e400]}',
                 "price_range must satisfy 0 < low <= high, both finite",
                 id="price_range-1e400"),
    pytest.param('{"family": "ces", "elasticity": 0.5, "weights": [1e400, 1], '
                 '"n_observations": 3}',
                 "weights must be a nonempty tuple of positive finite numbers",
                 id="weights-1e400"),
    # A count or seed with a fractional part is refused, not truncated.
    pytest.param('{"weights": [1.0], "n_observations": 3.9}',
                 "n_observations must be a whole number, got 3.9",
                 id="n_observations-fractional"),
    pytest.param('{"weights": [1.0], "n_observations": 3, "seed": 2.7}',
                 "seed must be a whole number, got 2.7", id="seed-fractional"),
    pytest.param('{"weights": [1.0], "n_observations": 3, "seed": 1e400}',
                 "cannot convert float infinity to integer", id="seed-1e400"),
    # A config that is no JSON, and one that asks for no observations.
    pytest.param("", "cannot read generator config", id="empty"),
    pytest.param('{"weights": [1.0], "n_observations": 0}', "need at least one observation",
                 id="n_observations-0"),
    # A seed is a non-negative integer, as verify's --seed is.
    pytest.param('{"weights": [1.0], "n_observations": 3, "seed": -1}',
                 "seed must be a non-negative integer, got -1", id="seed-negative"),
    pytest.param('{"weights": [1.0], "n_observations": 3, "seed": -2.0}',
                 "seed must be a non-negative integer, got -2", id="seed-negative-float"),
    # A JSON boolean or string is not a number, even where int() or float()
    # would read it as one.
    pytest.param('{"weights": [1.0], "n_observations": true}',
                 "n_observations: True is not a number", id="n_observations-true"),
    pytest.param('{"weights": [1.0], "n_observations": "4", "seed": 7}',
                 "n_observations: '4' is not a number", id="n_observations-string"),
    pytest.param('{"weights": [1.0], "n_observations": 4, "seed": "7"}',
                 "seed: '7' is not a number", id="seed-string"),
    pytest.param('{"weights": [1.0], "n_observations": 4, "seed": false}',
                 "seed: False is not a number", id="seed-false"),
    pytest.param('{"weights": [true], "n_observations": 4}',
                 "weights: True is not a number", id="weights-true"),
    pytest.param('{"weights": ["1"], "n_observations": 4}',
                 "weights: '1' is not a number", id="weights-string"),
    pytest.param('{"weights": [1.0], "n_observations": 4, "price_range": [true, true]}',
                 "price_range: True is not a number", id="price_range-true"),
    pytest.param('{"weights": [1.0], "n_observations": 4, "income_range": [1, "2"]}',
                 "income_range: '2' is not a number", id="income_range-string"),
    pytest.param('{"weights": [1.0], "n_observations": 4, "waste": false}',
                 "waste: False is not a number", id="waste-false"),
    pytest.param('{"weights": [1.0], "n_observations": 2, "waste": [0, true]}',
                 "waste: True is not a number", id="waste-list-true"),
    pytest.param('{"family": "ces", "weights": [1.0, 2.0], "elasticity": "0.5", '
                 '"n_observations": 4}',
                 "elasticity: '0.5' is not a number", id="elasticity-string"),
])
def test_generate_refuses_a_config_that_is_not_an_object(capsys, tmp_path,
                                                         report_validator, value, message):
    config = tmp_path / "gen.json"
    config.write_text(value)
    code, report = run_json(capsys, "generate", "--config", str(config),
                            "--data-out", str(tmp_path / "d.csv"))
    assert code == EXIT_INPUT_ERROR
    error = report["results"]["error"]
    assert error["type"] == "ParseError"
    assert message in error["message"]
    assert report["mode"] == "float"
    assert not list(report_validator.iter_errors(report))


def test_generate_refuses_a_config_it_cannot_read(capsys, tmp_path, report_validator):
    # A directory cannot be opened as a file.
    report = _assert_input_error(capsys, report_validator,
                                 ["generate", "--config", str(tmp_path),
                                  "--data-out", str(tmp_path / "d.csv")])
    assert report["results"]["error"]["type"] == "ParseError"
    assert "cannot read generator config" in report["results"]["error"]["message"]
    assert not (tmp_path / "d.csv").exists()


@pytest.fixture
def report_validator():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        (Path(__file__).resolve().parents[1] / "docs" / "report-schema.json")
        .read_text()
    )
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema)


def test_every_report_validates_against_schema(capsys, tmp_path, base_path,
                                               viol_path, report_validator):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,p1,x1\n1,0,1\n")
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({
        "family": "ces", "weights": [1.0, 1.0], "elasticity": 0.5,
        "n_observations": 4, "price_range": [0.5, 2.0],
        "income_range": [1.0, 3.0], "seed": 3,
    }))
    invocations = [
        ["check-garp", base_path],
        ["check-garp", viol_path],
        ["ccei", viol_path],
        ["afriat", base_path],
        ["afriat", viol_path],
        ["verify", base_path, "--samples", "60"],
        ["oracle", viol_path],
        ["check-garp", str(bad)],
        ["generate", "--config", str(config),
         "--data-out", str(tmp_path / "g.csv")],
    ]
    for argv in invocations:
        main(argv)
        report = json.loads(capsys.readouterr().out)
        errors = list(report_validator.iter_errors(report))
        assert not errors, f"{argv}: {errors[0].message if errors else ''}"


def test_reports_are_indent_2_json_byte_for_byte(capsys, tmp_path, viol_path):
    # Reports are written without json's pure-Python indent encoder; the
    # bytes must still be json.dumps(report, indent=2), on both lanes.
    table = random_csv(tmp_path / "random.csv", np.random.default_rng(31), 12, 3)
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({
        "family": "ces", "weights": [1.0, 2.0], "elasticity": 0.5,
        "n_observations": 5, "price_range": [0.5, 2.0],
        "income_range": [1.0, 3.0], "seed": 3,
    }))
    commands = []
    for path in (table, viol_path):
        for lane in ([], ["--float"]):
            commands += [
                ["check-garp", path, *lane],
                ["ccei", path, *lane],
                ["afriat", path, "--efficiency", "0.5", *lane],
                ["afriat", path, *lane],
                ["verify", path, "--efficiency", "0.5", "--samples", "20", *lane],
                ["verify", path, "--samples", "20", *lane],
                ["oracle", path, "--efficiency", "0.9", *lane],
                ["check-garp", path, "--efficiency", "2", *lane],
            ]
    commands += [["generate", "--config", str(config), "--data-out", str(tmp_path / "g.csv")],
                 ["ccei", str(tmp_path / "missing.csv")]]
    for argv in commands:
        main(argv)
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


def test_report_writer_is_json_dumps_indent_2():
    from garpkit.cli import _to_json
    for value in ({}, [], (), {"a": [], "b": {}, "c": [1, 2.5, "x\u00e9", None, True, -0.0,
                                                      float("inf"), 10**30]},
                  {"d": [{"q": [1, [2, []]]}, [], (3, (4,))], "e": [[1], {"f": None}]},
                  [1.0, 1e-300, 0.1 + 0.2], "s\n", 3, None,
                  {"long": [i / 7 for i in range(5000)], "tuple": tuple(range(4097))}):
        assert _to_json(value) == json.dumps(value, indent=2)
    # A 1-D array is written as the list of its lane's numbers: float64
    # through tolist(), Fraction as "num/den" strings.
    floats = np.random.default_rng(5).uniform(size=5000)
    fractions = np.array([Fraction(i, 7) for i in range(4097)], dtype=object)
    for array, listed in ((floats, floats.tolist()), (floats[:1], floats[:1].tolist()),
                          (fractions, list(map(str, fractions))),
                          (fractions[:2048], list(map(str, fractions[:2048])))):
        assert _to_json({"breakpoints": array, "n": 1}) == json.dumps(
            {"breakpoints": listed, "n": 1}, indent=2)


@pytest.mark.parametrize("doc", [
    '{"prices": [[1]], "bundles": 5}',
    '{"prices": 5, "bundles": [[1]]}',
    '{"prices": [1], "bundles": [[1]]}',
    '{"prices": [[true]], "bundles": [[1]]}',
    '{"prices": [[1]], "bundles": [[false]]}',
    '{"prices": [[1]], "bundles": [[null]]}',
    '{"prices": [[1]], "bundles": [[[1]]]}',
    '{"prices": [[1]], "bundles": [[NaN]]}',
])
def test_malformed_json_is_an_input_error(capsys, tmp_path, report_validator, doc):
    path = tmp_path / "d.json"
    path.write_text(doc)
    code, report = run_json(capsys, "check-garp", str(path))
    assert code == EXIT_INPUT_ERROR
    assert report["results"]["error"]["type"] == "ParseError"
    assert not list(report_validator.iter_errors(report))


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_rejects_nonpositive_samples(capsys, base_path, three_path, report_validator,
                                            samples):
    # Refused before the solve, so on infeasible data too.
    for path in (base_path, three_path):
        code, report = run_json(capsys, "verify", path, "--samples", samples)
        assert code == EXIT_INPUT_ERROR
        assert "--samples must be at least 1" in report["results"]["error"]["message"]
        assert not list(report_validator.iter_errors(report))


def test_ccei_refuses_a_bad_tolerance_before_the_exact_search(capsys, monkeypatch,
                                                              report_validator, base_path):
    import garpkit.cli as cli

    calls = []
    monkeypatch.setattr(cli, "ccei_exact", lambda *args: calls.append(args))
    report = _assert_input_error(capsys, report_validator, ["ccei", base_path, "--tol", "0"])
    assert report["results"]["error"]["type"] == "InvalidToleranceError"
    assert not calls


def test_verify_solves_afriat_once(capsys, monkeypatch, base_path):
    import garpkit.afriat as afriat
    import garpkit.cli as cli

    # The CLI imports solve_afriat on first use; it resolves as an attribute
    # all the same, and a wrapper set there is the one verify calls.
    solve = cli.solve_afriat
    assert solve is afriat.solve_afriat
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_afriat", counting)
    code, report = run_json(capsys, "verify", base_path, "--samples", "20")
    assert code == EXIT_OK and report["results"]["feasible"] is True
    assert len(calls) == 1


@pytest.mark.parametrize("lane", ["--exact", "--float"])
def test_verify_builds_and_labels_the_relations_once(capsys, monkeypatch, viol_path, lane):
    # The solver, budget membership and the duality check all read the
    # relations at e, so one verify builds them and labels their SCCs once.
    from garpkit import revpref

    calls = {"_relation": 0, "_components": 0}
    for name in calls:
        real = getattr(revpref, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(revpref, name, counted)
    code, report = run_json(capsys, "verify", viol_path, lane, "--efficiency", "4/5",
                            "--samples", "20")
    assert code == EXIT_OK and report["results"]["duality_consistent"] is True
    assert calls == {"_relation": 1, "_components": 1}


@pytest.mark.parametrize("command", ["afriat", "verify"])
def test_afriat_inequalities_are_checked_once_per_command(capsys, monkeypatch,
                                                          base_path, command):
    import garpkit.afriat as afriat
    import garpkit.cli as cli

    calls = []
    checked = afriat.worst_residual

    def counted(*args):
        calls.append(args)
        return checked(*args)

    # The CLI reads the residual that solve_afriat recorded; it has no
    # worst_residual of its own to call.
    for module in (afriat, cli):
        monkeypatch.setattr(module, "worst_residual", counted, raising=False)
    extra = ["--samples", "5"] if command == "verify" else []
    code, report = run_json(capsys, command, base_path, *extra)
    assert code == EXIT_OK
    assert len(calls) == 1
    assert report["results"]["worst_residual"] == float(checked(*calls[0]))


def test_traced_cli_names_resolve_and_are_called(capsys, monkeypatch, viol_path, tmp_path):
    # perfbench's layertrace wraps garpkit.cli names from outside; each one
    # the CLI still calls must resolve, and its wrapper must be the one run.
    import garpkit.cli as cli

    spec = importlib.util.spec_from_file_location(
        "layertrace", Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    names = [attr for module, attr, _ in layertrace.WRAPPED if module == "garpkit.cli"]
    # worst_residual is read off the solution now, so the CLI has none.
    assert [n for n in names if getattr(cli, n, None) is None] == ["worst_residual"]
    names.remove("worst_residual")
    called = set()

    def wrapper(name, real):
        def wrapped(*args, **kwargs):
            called.add(name)
            return real(*args, **kwargs)
        return wrapped

    for name in names:
        monkeypatch.setattr(cli, name, wrapper(name, getattr(cli, name)))
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({"family": "cobb_douglas", "weights": [0.5, 0.5],
                                  "n_observations": 4, "price_range": [0.5, 2.0],
                                  "income_range": [1.0, 5.0], "seed": 3}))
    for argv in (["check-garp", viol_path], ["ccei", viol_path],
                 ["verify", viol_path, "--efficiency", "4/5", "--samples", "5"],
                 ["generate", "--config", str(config), "--data-out", str(tmp_path / "g.csv")]):
        run_json(capsys, *argv)
    assert called == set(names)


def test_commands_load_only_the_modules_they_run(viol_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    script = (
        "import io, sys, contextlib\n"
        "from garpkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(sys.argv[1:])\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('garpkit'))))\n"
    )
    for command in ("check-garp", "ccei"):
        done = subprocess.run([sys.executable, "-c", script, command, viol_path, "--float"],
                              capture_output=True, text=True, env=env, timeout=60)
        loaded = done.stdout.split()
        assert "garpkit.revpref" in loaded, done.stderr
        assert not {"garpkit.afriat", "garpkit.datagen", "garpkit.duality",
                    "garpkit.oracle"} & set(loaded), (command, loaded)
    # Every public name still resolves, lazily, and unknown ones fail as
    # attribute errors, so submodules import as before.
    script = (
        "import garpkit\n"
        "assert all(getattr(garpkit, name) is not None for name in garpkit.__all__)\n"
        "assert set(garpkit.__all__) <= set(dir(garpkit))\n"
        "assert not hasattr(garpkit, 'no_such_name')\n"
        "from garpkit import cli, revpref\n"
        "from garpkit import *\n"
        "print(len(garpkit.__all__), revpref.check_e_garp is check_e_garp)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.stdout.split() == ["39", "True"], done.stderr


def test_float_ccei_fingerprints_without_openssl(viol_path):
    # The fingerprint's SHA-256 comes from CPython's own module, so a float
    # ccei never maps OpenSSL (hashlib's _hashlib); the digest is hashlib's.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    script = (
        "import io, json, sys, contextlib\n"
        "from garpkit.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    main(sys.argv[1:])\n"
        "print('_hashlib' in sys.modules, json.loads(out.getvalue())['dataset']['fingerprint'])\n"
    )
    done = subprocess.run([sys.executable, "-c", script, "ccei", viol_path, "--float"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.stdout.split()[0] == "False", done.stderr
    ds = parse_input(viol_path, exact=False)
    payload = json.dumps({"mode": "float", "prices": ds.price_array.tolist(),
                          "bundles": ds.bundle_array.tolist()},
                         separators=(",", ":"), sort_keys=True)
    assert done.stdout.split()[1] == hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command, lane", [
    *(pytest.param(command, lane, id=f"{command}-{lane[2:]}")
      for command in ("check-garp", "ccei", "afriat", "verify", "oracle")
      for lane in ("--exact", "--float")),
    pytest.param("generate", None, id="generate"),
])
def test_no_command_loads_numpy_random_nor_openssl(base_path, tmp_path, command, lane):
    # Every draw comes from garpkit.stream, so no command imports
    # numpy.random, nor the secrets, hmac and OpenSSL it brings; generate
    # loads neither the verifiers nor the Afriat solver either.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    unwanted = {"numpy.random", "secrets", "hmac", "_hashlib"}
    if command == "generate":
        config = tmp_path / "gen.json"
        config.write_text('{"weights": [0.5, 0.5], "n_observations": 4, "waste": 0.2}')
        argv = [command, "--config", str(config), "--data-out", str(tmp_path / "g.csv")]
        unwanted |= {"garpkit.duality", "garpkit.afriat"}
    else:
        argv = [command, base_path, lane] + (["--samples", "50"] if command == "verify" else [])
    script = (
        "import io, sys, contextlib\n"
        "from garpkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[2:])\n"
        "print(code, *sorted(set(sys.argv[1].split()) & set(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-c", script, " ".join(unwanted), *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.stdout.split() == ["0"], done.stderr


@pytest.mark.parametrize("value", ["-1", "-18446744073709551616"])
def test_verify_refuses_a_negative_seed(capsys, report_validator, base_path, three_path,
                                        value):
    # Refused before the solve, so on infeasible data too.
    for path, argv in product((base_path, three_path), (["--seed", value], [f"--seed={value}"])):
        report = _assert_input_error(capsys, report_validator,
                                     ["verify", path, "--samples", "5"] + argv)
        assert report["parameters"]["seed"] == int(value)
        assert report["results"]["error"] == {
            "type": "GarpkitError",
            "message": f"seed must be a non-negative integer, got {value}"}


def test_module_runs_as_script(viol_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "garpkit.cli", "check-garp", viol_path],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == EXIT_VIOLATION
    assert json.loads(done.stdout)["results"]["witness"]["cycle"] == [1, 2, 1]


@pytest.mark.parametrize("name, content, row, column", [
    ("d.json", '{"prices": [["abc"]], "bundles": [[1]]}', 1, "p1"),
    ("d.json", '{"prices": [[1, 2]], "bundles": [[1, "2/0"]]}', 1, "x2"),
    ("d.json", '{"prices": [[1]], "bundles": [[1e5000]]}', 1, "x1"),
    ("d.json", '{"prices": [[1], ["1e-5000"]], "bundles": [[1], [1]]}', 2, "p1"),
    ("d.csv", "t,p1,x1\n1,2,1e5000\n", 2, "x1"),
])
def test_bad_cells_are_parse_errors_naming_the_cell(capsys, tmp_path, report_validator,
                                                    name, content, row, column):
    path = tmp_path / name
    path.write_text(content)
    code, report = run_json(capsys, "check-garp", str(path))
    assert code == EXIT_INPUT_ERROR
    error = report["results"]["error"]
    assert error["type"] == "ParseError"
    assert (error["row"], error["column"]) == (row, column)
    assert "4300" not in error["message"]
    assert not list(report_validator.iter_errors(report))


@pytest.mark.parametrize("price", ["1e400", "1e-400"])
def test_verify_refuses_data_outside_float_range(capsys, tmp_path, report_validator, price):
    path = tmp_path / "range.csv"
    path.write_text(f"t,p1,p2,x1,x2\n1,{price},1,1,1\n2,1,2,2,1\n")
    for command in ("check-garp", "ccei", "afriat"):
        code, report = run_json(capsys, command, str(path))
        assert code == EXIT_OK, command
        assert not list(report_validator.iter_errors(report))
    code, report = run_json(capsys, "verify", str(path), "--samples", "10")
    assert code == EXIT_INPUT_ERROR
    assert report["results"]["error"]["type"] == "GarpkitError"
    assert "float64 range" in report["results"]["error"]["message"]
    assert not list(report_validator.iter_errors(report))


@pytest.mark.parametrize("table, message", [
    ("t,p1,p2,x1,x2\n1,1e400,1,1,1\n2,1,2,2,1\n",
     "exact data outside the float64 range: sampling draws points from a float64 mirror of "
     "the prices and bundles, and that mirror overflows or underflows"),
    ('{"prices": [[1, 1]], "bundles": [[0, 1e308]]}',
     "exact data outside the float64 range: the sampling box, twice the largest bundles, "
     "overflows"),
])
def test_verify_names_what_leaves_the_float64_range(capsys, tmp_path, table, message):
    # The overflowing price makes the dataset's float64 mirrors all NaN, and
    # the refusal is the mirror's; a bundle of 1e308 has a finite mirror,
    # and the sampling box around it overflows.
    path = tmp_path / ("d.json" if table.startswith("{") else "d.csv")
    path.write_text(table)
    code, report = run_json(capsys, "verify", str(path), "--samples", "5")
    assert code == EXIT_INPUT_ERROR
    assert report["results"]["error"] == {"type": "GarpkitError", "message": message}


@pytest.mark.parametrize("scale", ["1e200", "1e-200"])
def test_float_cross_expenditures_outside_float_range_are_refused(capsys, tmp_path,
                                                                  report_validator, scale):
    # Every cell is a finite float, but p[t] . x[s] overflows to inf
    # (1e200 * 1e200) or underflows to 0 (1e-200 * 1e-200).
    path = tmp_path / "range.csv"
    path.write_text(f"t,p1,p2,x1,x2\n1,{scale},{scale},{scale},{scale}\n"
                    f"2,{scale},2{scale[1:]},2{scale[1:]},{scale}\n")
    for command in ("check-garp", "ccei", "afriat", "verify"):
        code, report = run_json(capsys, command, "--float", str(path))
        assert code == EXIT_INPUT_ERROR, command
        assert report["results"]["error"]["type"] == "GarpkitError"
        assert "float64 range" in report["results"]["error"]["message"]
        assert not list(report_validator.iter_errors(report))


@pytest.mark.parametrize("cell", ["1e400", "1e5000"])
def test_float_mode_overflowing_cell_is_an_input_error(capsys, tmp_path, report_validator,
                                                       cell):
    path = tmp_path / "d.json"
    path.write_text(f'{{"prices": [[{cell}]], "bundles": [[1]]}}')
    code, report = run_json(capsys, "check-garp", "--float", str(path))
    assert code == EXIT_INPUT_ERROR
    assert not list(report_validator.iter_errors(report))


# One CSV cell read on each lane: the parsed value, or the error's type, row
# and column (ShapeMismatchError names no cell).
CELL_TABLE = [
    # cell,      exact lane,                      float lane
    ("abc",      ("ParseError", 2, "x1"),         ("ParseError", 2, "x1")),
    ("",         ("ParseError", 2, "x1"),         ("ParseError", 2, "x1")),
    ("3/4",      Fraction(3, 4),                  ("ShapeMismatchError", None, None)),
    ("nan",      ("ParseError", 2, "x1"),         ("ParseError", 2, "x1")),
    ("inf",      ("ParseError", 2, "x1"),         ("ParseError", 2, "x1")),
    ("1_000",    Fraction(1000),                  1000.0),
    (" 2.5 ",    Fraction(5, 2),                  2.5),
    ("1e5000",   ("ParseError", 2, "x1"),         ("ShapeMismatchError", None, None)),
]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("cell, on_exact, on_float", CELL_TABLE,
                         ids=[repr(row[0]) for row in CELL_TABLE])
def test_csv_cell_table(tmp_path, cell, on_exact, on_float, exact):
    from garpkit.errors import GarpkitError

    path = tmp_path / "d.csv"
    path.write_text(f"t,p1,x1\n1,2,{cell}\n")
    expected = on_exact if exact else on_float
    if isinstance(expected, tuple):
        with pytest.raises(GarpkitError) as info:
            parse_input(str(path), exact=exact)
        error = info.value
        assert (type(error).__name__, getattr(error, "row", None),
                getattr(error, "column", None)) == expected
    else:
        value = parse_input(str(path), exact=exact).bundles[0][0]
        assert value == expected and type(value) is type(expected)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("cell, accepted", [
    ("abc", False), ("", False), ("3/4", True), ("nan", False), ("inf", False),
    ("1_000", True), (" 2.5 ", True), ("1e5000", None),
])
def test_csv_index_column_cells(tmp_path, cell, accepted, exact):
    # The t column must hold a number; its value is not used.  A number too
    # long to write out is refused on the exact lane only (None above).
    from garpkit.errors import ParseError

    path = tmp_path / "d.csv"
    path.write_text(f"t,p1,x1\n{cell},2,1\n")
    if accepted or (accepted is None and not exact):
        assert parse_input(str(path), exact=exact).n_observations == 1
    else:
        with pytest.raises(ParseError) as info:
            parse_input(str(path), exact=exact)
        assert (info.value.row, info.value.column) == (2, "t")


# ------------------------------------------------------------ fuzz
#
# Malformed input of every kind must end in exit 2 with an error report
# that validates against the schema, and never in a traceback.

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# Text that is no number, in any column and on either lane.
_NOT_NUMBERS = ["abc", "", "nan", "inf", "-inf", "NaN", "1/0", "1..2", "0x10",
                "1e", "--1", "true", "1 2", "½"]
_FUZZ = settings(max_examples=120, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _valid_table(draw, goods, observations):
    number = st.sampled_from(["1", "2.5", "0.75", "3", "10"])
    prices = [[draw(number) for _ in range(goods)] for _ in range(observations)]
    bundles = [[draw(number) for _ in range(goods)] for _ in range(observations)]
    return prices, bundles


@st.composite
def _malformed_csv(draw):
    goods, observations = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    prices, bundles = _valid_table(draw, goods, observations)
    exact = draw(st.booleans())
    header = ["t"] + [f"p{i}" for i in range(1, goods + 1)] + [f"x{i}" for i in range(1, goods + 1)]
    rows = [[str(t + 1)] + prices[t] + bundles[t] for t in range(observations)]
    r = draw(st.integers(0, observations - 1))
    c = draw(st.integers(0, 2 * goods))
    kind = draw(st.sampled_from(["cell", "number", "ragged", "header", "zero", "empty"]))
    if kind == "cell":
        rows[r][c] = draw(st.sampled_from(_NOT_NUMBERS))
    elif kind == "number":
        # Numbers no dataset may hold in a price or bundle column.
        c = draw(st.integers(1, 2 * goods))
        bad = ["0", "-1", "-0.5", "1e5000"] if c <= goods else ["-1", "-0.5", "1e5000"]
        rows[r][c] = draw(st.sampled_from(bad))
    elif kind == "ragged":
        if draw(st.booleans()):
            rows[r].append("1")
        else:
            rows[r].pop()
    elif kind == "header":
        header = draw(st.sampled_from([
            ["a", "b", "c"], header[::-1], header[:-1], ["t"] + header[1:] + ["x9"],
            [h.upper() for h in header],
        ]))
    elif kind == "zero":
        rows[r][goods + 1:] = ["0"] * goods
    else:
        rows = []
    text = "\n".join(",".join(row) for row in [header] + rows) + "\n"
    return text, exact


@st.composite
def _malformed_json(draw):
    goods, observations = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    prices, bundles = _valid_table(draw, goods, observations)
    doc = {"prices": [[float(v) for v in row] for row in prices],
           "bundles": [[float(v) for v in row] for row in bundles]}
    key = draw(st.sampled_from(["prices", "bundles"]))
    r = draw(st.integers(0, observations - 1))
    c = draw(st.integers(0, goods - 1))
    kind = draw(st.sampled_from(["cell", "number", "table", "row", "shape", "doc", "text"]))
    if kind == "cell":
        doc[key][r][c] = draw(st.sampled_from(
            [True, False, None, [1], {}, "abc", "", "nan", "1/0", "inf"]))
    elif kind == "number":
        doc[key][r][c] = draw(st.sampled_from(
            [0, -1, "1e5000"] if key == "prices" else [-1, -0.5, "1e5000"]))
    elif kind == "table":
        doc[key] = draw(st.sampled_from([5, "x", {}, None, True]))
    elif kind == "row":
        doc[key][r] = draw(st.sampled_from([5, "x", {}, None]))
    elif kind == "shape":
        shape = draw(st.sampled_from(["ragged", "long", "empty"]))
        if shape == "ragged":
            doc[key][r].append(1.0)
        elif shape == "long":
            doc[key].append([1.0] * goods)
        else:
            doc = {"prices": [], "bundles": []}
    elif kind == "doc":
        doc = draw(st.sampled_from([[], 3, "x", None, {"prices": doc["prices"]},
                                    {"bundles": doc["bundles"]}]))
    text = json.dumps(doc)
    if kind == "text":
        # Any proper prefix of an object, or one with NaN spelt out.
        text = draw(st.sampled_from([text[:draw(st.integers(0, len(text) - 1))],
                                     text.replace("1.0", "NaN", 1) + "}"]))
    return text, draw(st.booleans())


_COMMANDS = [["check-garp"], ["ccei"], ["afriat"], ["verify", "--samples", "3"]]


def _assert_input_error(capsys, report_validator, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == EXIT_INPUT_ERROR, argv
    assert "Traceback" not in out + err
    report = json.loads(out)
    assert "error" in report["results"], argv
    assert not list(report_validator.iter_errors(report)), argv
    return report


@_FUZZ
@given(_malformed_csv(), st.sampled_from(_COMMANDS))
def test_fuzz_malformed_csv(capsys, tmp_path, report_validator, case, command):
    text, exact = case
    path = tmp_path / "fuzz.csv"
    path.write_text(text)
    argv = command + [str(path)] + ([] if exact else ["--float"])
    _assert_input_error(capsys, report_validator, argv)


@_FUZZ
@given(_malformed_json(), st.sampled_from(_COMMANDS))
def test_fuzz_malformed_json(capsys, tmp_path, report_validator, case, command):
    text, exact = case
    path = tmp_path / "fuzz.json"
    path.write_text(text)
    argv = command + [str(path)] + ([] if exact else ["--float"])
    _assert_input_error(capsys, report_validator, argv)


@st.composite
def _bad_flags(draw):
    efficiency = st.sampled_from(["0", "-0.5", "1.5", "abc", "", "1,1,1", "nan", "inf",
                                  "1e-5000", "1/0", "1,", "2/3,1/2,", "1e5000"])
    # Text that is no number of the flag's type: argparse itself refuses it.
    not_int = st.sampled_from(["abc", "", "1.5", "1e3", "0x10", "--", "½", "1/2"])
    not_float = st.sampled_from(["x", "abc", "", "1e", "1/0", "--", "1,5", "0x1p-3"])
    kind = draw(st.sampled_from(["efficiency", "samples", "seed", "tol", "format", "choice",
                                 "unknown"]))
    if kind == "efficiency":
        command = draw(st.sampled_from([["check-garp"], ["afriat"], ["verify", "--samples", "3"]]))
        return command + [f"--efficiency={draw(efficiency)}"], "base.csv"
    if kind == "samples":
        value = draw(st.one_of(st.integers(-10**6, 0).map(str), not_int))
        return ["verify", f"--samples={value}"], "base.csv"
    if kind == "seed":
        return ["verify", "--samples", "3", f"--seed={draw(not_int)}"], "base.csv"
    if kind == "tol":
        tol = draw(st.one_of(st.sampled_from(["0", "-1", "-1e-9", "nan", "inf", "-inf"]),
                             not_float))
        return ["ccei", f"--tol={tol}"], "base.csv"
    if kind == "choice":
        flag = draw(st.sampled_from(["--format", "--input-format"]))
        return draw(st.sampled_from(_COMMANDS)) + [f"{flag}={draw(st.sampled_from(['xml', '']))}"], \
            "base.csv"
    if kind == "unknown":
        return draw(st.sampled_from(_COMMANDS)) + [draw(st.sampled_from(["--bogus", "-z"]))], \
            "base.csv"
    command = draw(st.sampled_from(_COMMANDS))
    return command + ["--input-format", draw(st.sampled_from(["json", "csv"]))], None


@_FUZZ
@given(_bad_flags(), st.booleans())
def test_fuzz_bad_flags(capsys, tmp_path, report_validator, case, exact):
    argv, name = case
    csv_path = tmp_path / "base.csv"
    csv_path.write_text(BASE_CSV)
    json_path = tmp_path / "base.json"
    json_path.write_text('{"prices": [[1, 1], [2, 2]], "bundles": [[1, 1], [2, 2]]}')
    if name is None:
        # Each file read as the other format.
        path = csv_path if argv[-1] == "json" else json_path
    else:
        path = csv_path
    argv = argv + [str(path)] + ([] if exact else ["--float"])
    report = _assert_input_error(capsys, report_validator, argv)
    assert report["command"] == argv[0]
    assert report["mode"] == ("exact" if exact else "float")


@pytest.mark.parametrize("argv", [["verify"], ["ccei", "--tol"], ["generate"],
                                  ["afriat", "--float", "--samples", "3"]])
def test_refused_arguments_name_the_subcommand(capsys, report_validator, argv):
    # A missing input, a flag without its value, missing required flags and
    # a flag the subcommand does not have: exit 2, an error report for the
    # subcommand on standard output, the usage line on standard error.
    report = _assert_input_error(capsys, report_validator, argv)
    assert report["command"] == argv[0]
    assert report["results"]["error"]["type"] == "UsageError"
    assert report["mode"] == ("float" if "--float" in argv or argv[0] == "generate"
                              else "exact")


@pytest.mark.parametrize("argv", [[], ["bogus", "x.csv"], ["--bogus"]])
def test_no_subcommand_keeps_the_usage_exit(capsys, argv):
    # The report's command field has no value for these, so argparse's own
    # usage message and exit 2 stand.
    with pytest.raises(SystemExit) as info:
        main(argv)
    out, err = capsys.readouterr()
    assert info.value.code == EXIT_INPUT_ERROR
    assert not out and "usage: garpkit" in err
