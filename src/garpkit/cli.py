"""Command line interface.

Subcommands: check-garp, ccei, afriat, verify, generate, oracle.  Every run
produces a report document (JSON or text) carrying the tool version, the
command and its parameters, a content fingerprint of the dataset, and the
results.  Exit codes: 0 success (and passing verdicts), 1 a revealed
preference violation verdict, 2 input or usage errors.

File inputs are decimal text, so the exact lane is the default; ``--float``
opts into float64 arithmetic with tolerant comparisons.  Exact rationals are
serialized as "numerator/denominator" strings and parse back losslessly.
Observation indices in reports are 1-based, matching the ``t`` column of CSV
inputs; the library itself is 0-based.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from dataclasses import fields
from fractions import Fraction
from importlib import import_module
from itertools import chain
from math import isfinite
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .errors import AfriatInfeasibleError, GarpkitError, ParseError
from .model import Dataset, coerce_efficiency, cross_expenditures, validate_dataset
from .stream import _check_count, _check_seed

try:
    # CPython's own SHA-256 spares every command the OpenSSL that hashlib
    # loads (several MB of RSS); random.py takes _sha512 the same way.
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:
        from hashlib import sha256

if TYPE_CHECKING:
    from .afriat import AfriatSolution
    from .duality import VerificationReport
    from .revpref import CycleWitness

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT_ERROR = 2

# The library names the commands call, imported on first use: a value set
# on this module (a test double, a tracing wrapper) is the one called.
_LAZY = {"check_e_garp": "revpref", "ccei_exact": "ccei", "ccei_binary_search": "ccei",
         "solve_afriat": "afriat", "check_duality_garp": "duality",
         "verify_rationalization": "duality", "verify_cost_rationalization": "duality",
         "ccei_oracle": "oracle", "garp_oracle": "oracle",
         "GeneratorSpec": "datagen", "generate": "datagen"}
# What each command imports before it reads its input (later, compiling
# them would add to the peak memory).
_RUNS = {"check-garp": "revpref", "ccei": "ccei", "afriat": "afriat", "verify": "afriat duality",
         "oracle": "oracle", "generate": "datagen ccei"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __package__), name)
    return value


_cli = sys.modules[__name__]


# ---------------------------------------------------------------- input


def _detect_format(path: str, declared: str) -> str:
    if declared != "auto":
        return declared
    ext = os.path.splitext(path)[1].lower()
    if ext == ".csv":
        return "csv"
    if ext == ".json":
        return "json"
    raise ParseError(path, "cannot infer input format from extension; pass --input-format")


def parse_input(path: str, fmt: str = "auto", exact: bool = True) -> Dataset:
    """Read a dataset file (CSV or JSON) into a validated Dataset.

    CSV layout: header ``t,p1..pL,x1..xL``, one row per observation.  JSON
    layout: an object with "prices" and "bundles" arrays of rows.  On the
    exact lane, numeric text is parsed as exact decimals.
    """
    fmt = _detect_format(path, fmt)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            content = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ParseError(path, str(err)) from err
    if fmt == "csv":
        prices, bundles = _parse_csv(path, content, exact)
    else:
        prices, bundles = _parse_json(path, content, exact)
    return validate_dataset(prices, bundles, exact=exact)


def _parse_csv(path: str, content: str, exact: bool):
    rows = list(csv.reader(io.StringIO(content)))
    rows = [row for row in rows if row and any(cell.strip() for cell in row)]
    if not rows:
        raise ParseError(path, "empty file")
    header = [cell.strip() for cell in rows[0]]
    if not header or header[0] != "t" or len(header) % 2 == 0:
        raise ParseError(path, "header must be t,p1..pL,x1..xL")
    width = (len(header) - 1) // 2
    expected = ["t"] + [f"p{i}" for i in range(1, width + 1)] + \
        [f"x{i}" for i in range(1, width + 1)]
    if header != expected:
        raise ParseError(path, f"header must be {','.join(expected)}")
    prices, bundles = [], []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(path, f"expected {len(header)} cells", row=r)
        values = [_read_cell(path, cell.strip(), r, column, exact)
                  for cell, column in zip(row, header)]
        prices.append(values[1 : width + 1])
        bundles.append(values[width + 1 :])
    return prices, bundles


def _parse_json(path: str, content: str, exact: bool):
    try:
        doc = json.loads(content, parse_float=Fraction, parse_int=Fraction)
    except json.JSONDecodeError as err:
        raise ParseError(path, f"invalid JSON: {err}") from err
    if not isinstance(doc, dict) or "prices" not in doc or "bundles" not in doc:
        raise ParseError(path, 'JSON input needs "prices" and "bundles" arrays')
    # Columns are named as in the CSV header: p1, p2, ... and x1, x2, ...
    tables = []
    for key, letter in (("prices", "p"), ("bundles", "x")):
        table = doc[key]
        if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
            raise ParseError(path, f'"{key}" must be an array of arrays')
        values = []
        for r, row in enumerate(table, start=1):
            values.append([])
            for c, cell in enumerate(row, start=1):
                column = f"{letter}{c}"
                # Numbers arrive as Fractions (parse_int/parse_float) and
                # decimal strings as text; true, false, null, NaN and nested
                # containers are not numbers.
                if not isinstance(cell, (Fraction, str)):
                    raise ParseError(
                        path, f'"{key}" entry is not a number: {type(cell).__name__}',
                        row=r, column=column,
                    )
                values[-1].append(_read_cell(path, cell, r, column, exact))
        tables.append(values)
    return tables


def _read_cell(path: str, cell, row: int, column: str, exact: bool):
    """The number in ``cell``, read once.

    Raises ParseError unless ``cell`` reads as a rational number, one the
    report can write out in full on the exact lane.  On the float lane a
    finite ``float(cell)`` is the value (every such text is also rational);
    other text that is rational, such as "3/4" or "1e5000", is passed on
    unread, for :func:`validate_dataset` to refuse as it does any text that
    is no finite float.
    """
    if not exact:
        try:
            value = float(cell)
        except (ValueError, OverflowError):
            value = None
        if value is not None and isfinite(value):
            return value
    try:
        number = Fraction(cell)
    except (ValueError, ZeroDivisionError) as err:
        raise ParseError(path, f"not a number: {cell!r}", row=row, column=column) from err
    if not exact:
        return cell
    # The exact-lane fingerprint writes every entry out in full.
    if not _writable(number):
        raise ParseError(path, "number has too many digits", row=row, column=column)
    return number


def _writable(value: Fraction) -> bool:
    """Whether a report can write ``value`` out in full.

    Python refuses to write integers of over sys.get_int_max_str_digits()
    digits (4300 by default, never under 640).  Under 2000 bits an integer
    has at most 603 digits, so only longer ones need the trial conversion.
    """
    if max(value.numerator.bit_length(), value.denominator.bit_length()) < 2000:
        return True
    try:
        str(value)
    except ValueError:
        return False
    return True


def _efficiency_argument(text: str):
    parts = [p.strip() for p in text.split(",")]
    try:
        values = [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as err:
        raise GarpkitError(f"bad efficiency value in {text!r}") from err
    if not all(_writable(v) for v in values):
        raise GarpkitError("efficiency value has too many digits")
    return values[0] if len(values) == 1 else values


# ---------------------------------------------------------------- encoding


def _lane_encoder(dataset: Dataset):
    """The JSON encoder of the numbers of one lane.

    Exact-lane numbers are all ``Fraction`` and become lossless "num/den"
    strings; float-lane ones are ``float`` and stay JSON numbers.
    """
    return str if dataset.exact else float


def _block_encoder(array: np.ndarray):
    """The encoder of blocks of one lane's 1-D array, by :func:`_lane_encoder`'s rule.

    An object array holds the exact lane's ``Fraction``s, which become
    "num/den" strings; a float64 array's ``tolist`` gives the Python floats
    that ``float`` would, without a scalar object per item.
    """
    if array.dtype == object:
        return lambda block: list(map(str, block))
    return np.ndarray.tolist


def _encode_witness(w: CycleWitness | None):
    if w is None:
        return None
    return {
        "cycle": [i + 1 for i in w.indices],
        "strict_edge": w.strict_edge,
    }


def dataset_fingerprint(dataset: Dataset) -> str:
    encode = _lane_encoder(dataset)
    payload = json.dumps(
        {
            "mode": "exact" if dataset.exact else "float",
            "prices": [list(map(encode, row)) for row in dataset.prices],
            "bundles": [list(map(encode, row)) for row in dataset.bundles],
        },
        separators=(",", ":"),
        sort_keys=True,
    )
    return sha256(payload.encode("utf-8")).hexdigest()


def _verification_json(report: VerificationReport):
    return {
        "kind": report.kind,
        "seed": report.seed,
        "requested_per_observation": report.requested_per_observation,
        "total_samples": report.total_samples,
        "clean": report.clean,
        "exhausted_observations": [t + 1 for t in report.exhausted],
        "exact_certified": report.exact_certified,
        "nudged": report.nudged,
        "dropped": report.dropped,
        "per_observation": [
            {"observation": o.observation + 1, "samples": o.samples,
             "violations": o.violations}
            for o in report.per_observation
        ],
        "violations": [
            {"observation": v.observation + 1, "bundle": list(v.bundle),
             "lhs": v.lhs, "rhs": v.rhs}
            for v in report.violations
        ],
    }


# ---------------------------------------------------------------- commands


def _cmd_check_garp(dataset: Dataset, args) -> tuple[dict, int]:
    verdict = _cli.check_e_garp(dataset, args.efficiency_value)
    results = {
        "efficiency": _echo_efficiency(dataset, args.efficiency_value),
        "holds": verdict.holds,
        "witness": _encode_witness(verdict.witness),
    }
    return results, EXIT_OK if verdict.holds else EXIT_VIOLATION


def _cmd_ccei(dataset: Dataset, args) -> tuple[dict, int]:
    encode = _lane_encoder(dataset)
    # The bisection refuses a bad --tol before the exact search runs.
    bisect_value = _cli.ccei_binary_search(dataset, args.tol)
    exact_result = _cli.ccei_exact(dataset)
    agreement = abs(bisect_value - float(exact_result.value)) <= args.tol
    results = {
        "ccei_exact": encode(exact_result.value),
        "ccei_bisect": bisect_value,
        "tol": args.tol,
        "agreement": agreement,
        "attained": exact_result.attained,
        "garp_at_one": bool(exact_result.value == 1 and exact_result.attained),
        "witness_above": _encode_witness(exact_result.witness_above),
        "witness_probe": None if exact_result.witness_probe is None
        else encode(exact_result.witness_probe),
        "breakpoints": exact_result.breakpoints,  # encoded by _block_encoder as it is written
    }
    return results, EXIT_OK


def _cmd_afriat(dataset: Dataset, args) -> tuple[dict, int, AfriatSolution | None]:
    """The afriat results and exit code, plus the solution if feasible."""
    try:
        solution = _cli.solve_afriat(dataset, args.efficiency_value)
    except AfriatInfeasibleError as err:
        results = {
            "efficiency": _echo_efficiency(dataset, args.efficiency_value),
            "feasible": False,
            "witness": _encode_witness(err.witness),
        }
        return results, EXIT_VIOLATION, None
    encode = _lane_encoder(dataset)
    results = {
        "efficiency": _echo_efficiency(dataset, args.efficiency_value),
        "feasible": True,
        "phi": list(map(encode, solution.phi)),
        "lambda": list(map(encode, solution.lam)),
        "checked_pairs": dataset.n_observations ** 2,
        "worst_residual": float(solution.residual),
    }
    return results, EXIT_OK, solution


def _cmd_verify(dataset: Dataset, args) -> tuple[dict, int]:
    # Refused before the solve: on infeasible data the verifiers never run.
    _check_count(args.samples, "--samples", GarpkitError)
    _check_seed(args.seed, GarpkitError)
    base, code, solution = _cmd_afriat(dataset, args)
    if solution is None:
        base.update({
            "rationalization": None,
            "cost_rationalization": None,
            "duality_consistent": _cli.check_duality_garp(dataset, args.efficiency_value,
                                                          [None, None]),
        })
        return base, code
    rat = _cli.verify_rationalization(dataset, args.efficiency_value, solution,
                                      n_samples=args.samples, seed=args.seed)
    cost = _cli.verify_cost_rationalization(dataset, args.efficiency_value, solution,
                                            n_samples=args.samples, seed=args.seed)
    consistent = _cli.check_duality_garp(dataset, args.efficiency_value, [rat, cost])
    base.update({
        "rationalization": _verification_json(rat),
        "cost_rationalization": _verification_json(cost),
        "duality_consistent": consistent,
    })
    clean = rat.clean and cost.clean
    return base, EXIT_OK if clean else EXIT_VIOLATION


def _cmd_oracle(dataset: Dataset, args) -> tuple[dict, int]:
    # The oracle computes its own products: refuse float data whose cross
    # expenditures leave the float64 range, as the other commands do.
    cross_expenditures(dataset)
    verdict = _cli.garp_oracle(dataset, args.efficiency_value)
    value = _cli.ccei_oracle(dataset)
    results = {
        "efficiency": _echo_efficiency(dataset, args.efficiency_value),
        "garp_holds": verdict.garp_holds,
        "violating_cycles": [[i + 1 for i in c] for c in verdict.violating_cycles],
        "ccei": _lane_encoder(dataset)(value),
    }
    return results, EXIT_OK if verdict.garp_holds else EXIT_VIOLATION


def _echo_efficiency(dataset: Dataset, e) -> list:
    return list(map(_lane_encoder(dataset), coerce_efficiency(e, dataset)))


def _cmd_generate(args) -> tuple[dict, dict, int]:
    """The dataset block, the results and the exit code."""
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ParseError(args.config, f"cannot read generator config: {err}") from err
    if not isinstance(raw, dict):
        raise ParseError(args.config, "generator config must be a JSON object")
    unknown = set(raw) - {f.name for f in fields(_cli.GeneratorSpec)}
    if unknown:
        raise ParseError(args.config, f"unknown config keys: {sorted(unknown)}")
    try:
        spec = _cli.GeneratorSpec(**{"family": "cobb_douglas", "weights": (), "n_observations": 0,
                                     "price_range": (1.0, 1.0), "income_range": (1.0, 1.0),
                                     **raw})
    except (ValueError, TypeError, OverflowError) as err:
        raise ParseError(args.config, str(err)) from err
    dataset = _cli.generate(spec)
    _write_dataset(dataset, args.data_out)
    index = _cli.ccei_exact(dataset)
    results = {
        "data_out": args.data_out,
        "family": spec.family,
        "observations": dataset.n_observations,
        "goods": dataset.n_goods,
        "seed": spec.seed,
        "ccei": _lane_encoder(dataset)(index.value),
    }
    return _dataset_block(dataset), results, EXIT_OK


def _write_dataset(dataset: Dataset, path: str) -> None:
    """Write ``dataset`` to ``path`` as JSON or CSV, by its extension; the
    cells are the floats of its float64 mirrors, written by ``repr``."""
    prices, bundles = dataset.price_array.tolist(), dataset.bundle_array.tolist()
    if os.path.splitext(path)[1].lower() == ".json":
        payload = json.dumps({"prices": prices, "bundles": bundles}, indent=2)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        goods = range(1, dataset.n_goods + 1)
        writer.writerow(["t", *(f"p{i}" for i in goods), *(f"x{i}" for i in goods)])
        # csv writes a float as str(), which is its repr.
        writer.writerows([t, *p, *x] for t, (p, x) in enumerate(zip(prices, bundles), start=1))
        payload = buf.getvalue()
    _atomic_write(path, [payload])


class WriteError(GarpkitError):
    """A report or dataset file could not be written; the message names it."""


def _atomic_write(path: str, pieces) -> None:
    """Write the strings of ``pieces`` to ``path`` through a ``.tmp`` file.

    The file appears under ``path`` only once complete; if writing fails,
    the temporary file is removed and the error raised, an ``OSError`` as
    the :class:`WriteError` that names ``path``.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException as err:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(err, OSError):
            raise WriteError(f"{path}: cannot write: {err.strerror or err}") from err
        raise


# ---------------------------------------------------------------- rendering


def _dataset_block(dataset: Dataset) -> dict:
    return {
        "fingerprint": dataset_fingerprint(dataset),
        "observations": dataset.n_observations,
        "goods": dataset.n_goods,
    }


def _render_text(report: dict) -> str:
    lines = [f"garpkit {report['version']} :: {report['command']} ({report['mode']})"]
    ds = report.get("dataset")
    if ds:
        lines.append(
            f"dataset {ds['fingerprint'][:12]} "
            f"({ds['observations']} observations, {ds['goods']} goods)"
        )
    results = report["results"]
    if "error" in results:
        lines.append(f"error [{results['error']['type']}]: {results['error']['message']}")
        return "\n".join(lines) + "\n"
    for key, value in results.items():
        if key in ("rationalization", "cost_rationalization") and value:
            lines.append(
                f"{key}: clean={value['clean']} samples={value['total_samples']} "
                f"violations={len(value['violations'])}"
            )
        elif key == "breakpoints":
            lines.append(f"breakpoints: {len(value)} candidates")
        elif key == "witness" or key == "witness_above":
            if value:
                lines.append(f"{key}: cycle {value['cycle']} (strict step {value['strict_edge']})")
            else:
                lines.append(f"{key}: none")
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def _to_json(report: dict) -> str:
    """``json.dumps(report, indent=2)``, byte for byte."""
    return "".join(_json_chunks(report))


def _json_chunks(value, level: int = 0):
    """Yield the pieces of ``json.dumps(value, indent=2)`` at ``level``.

    With an indent, ``json`` encodes in pure Python, item by item.  Here a
    list of scalars goes to json's C encoder, the indent written into the
    item separator, a block of 2048 items per call, so no piece is larger
    than one block's text.  A 1-D array, such as the ``ccei`` breakpoints,
    is written the same way as the list of its lane's numbers, each block
    encoded by :func:`_block_encoder`.
    """
    pad = "\n" + "  " * (level + 1)
    if isinstance(value, dict) and value:
        sep = "{" + pad
        for key, item in value.items():
            yield sep + json.dumps(key) + ": "
            yield from _json_chunks(item, level + 1)
            sep = "," + pad
        yield pad[:-2] + "}"
    elif isinstance(value, (list, tuple, np.ndarray)) and len(value):
        sep = "[" + pad
        if isinstance(value, np.ndarray) or {dict, list, tuple}.isdisjoint(map(type, value)):
            encode = _block_encoder(value) if isinstance(value, np.ndarray) else list
            for i in range(0, len(value), 2048):
                block = encode(value[i : i + 2048])
                yield sep + json.dumps(block, separators=("," + pad, ": "))[1:-1]
                sep = "," + pad
        else:
            for item in value:
                yield sep
                yield from _json_chunks(item, level + 1)
                sep = "," + pad
        yield pad[:-2] + "]"
    else:
        yield json.dumps(value)


def _emit(report: dict, fmt: str, out: str | None, code: int) -> int:
    """Write the report piece by piece, to the file ``out`` or to standard
    output, in the format ``fmt``; return the exit code, ``code`` unless the
    report could not be written.

    A JSON report is never held whole: the pieces of :func:`_json_chunks`
    go straight to the file (through :func:`_atomic_write`) or the stream.
    A report that cannot be written to ``out`` is replaced by an error
    report on standard output, and the exit code is 2.  Standard output
    closed by its reader (``garpkit ccei data.csv | head``) also gives exit
    2: it is pointed at the null device, as the ``signal`` module's notes on
    SIGPIPE advise, so that Python's flush at exit does not fail again.
    """
    if fmt == "json":
        pieces = chain(_json_chunks(report), ["\n"])
    else:
        pieces = [_render_text(report)]
    try:
        if out:
            _atomic_write(out, pieces)
        else:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
    except WriteError as err:
        report["results"] = _error_results(err)
        return _emit(report, fmt, None, EXIT_INPUT_ERROR)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT_ERROR
    return code


# ---------------------------------------------------------------- parser


class UsageError(GarpkitError):
    """A subcommand's arguments were refused (bad value, missing, unknown)."""

    def __init__(self, command: str, message: str):
        super().__init__(message)
        self.command = command


class _CommandParser(argparse.ArgumentParser):
    """The parser of one subcommand.

    argparse answers a refused argument with a usage message and exit 2.
    Once the subcommand is known the refusal is raised as a
    :class:`UsageError` instead, so :func:`main` can write an error report
    for that command; the usage line still goes to standard error.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        # add_parser names each subcommand's parser "garpkit <command>".
        raise UsageError(self.prog.rsplit(" ", 1)[-1], message)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="garpkit",
        description="Revealed-preference rationality testing and utility recovery.",
    )
    parser.add_argument("--version", action="version", version=__version__)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json",
                        help="report format (default json)")
    common.add_argument("--out", help="write the report to this path (atomic)")

    data_common = argparse.ArgumentParser(add_help=False, parents=[common])
    data_common.add_argument("input", help="dataset file (CSV or JSON)")
    data_common.add_argument("--input-format", choices=("csv", "json", "auto"),
                             default="auto")
    mode = data_common.add_mutually_exclusive_group()
    mode.add_argument("--exact", dest="exact", action="store_true", default=True,
                      help="exact rational arithmetic (default for file input)")
    mode.add_argument("--float", dest="exact", action="store_false",
                      help="float64 arithmetic with tolerant comparisons")

    eff = argparse.ArgumentParser(add_help=False)
    eff.add_argument("--efficiency", default="1",
                     help="budget deflator: scalar or comma list (default 1)")

    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)
    sub.add_parser("check-garp", parents=[data_common, eff],
                   help="test e-GARP, report a violating cycle if any")
    p_ccei = sub.add_parser("ccei", parents=[data_common],
                            help="critical cost efficiency, exact and bisected")
    p_ccei.add_argument("--tol", type=float, default=1e-9,
                        help="bisection tolerance (default 1e-9)")
    sub.add_parser("afriat", parents=[data_common, eff],
                   help="solve the Afriat inequalities")
    p_verify = sub.add_parser("verify", parents=[data_common, eff],
                              help="recover utility and verify both dualities by sampling")
    p_verify.add_argument("--samples", type=int, default=10_000,
                          help="samples per observation (default 10000)")
    p_verify.add_argument("--seed", type=int, default=0, help="master RNG seed")
    sub.add_parser("oracle", parents=[data_common, eff],
                   help="brute-force verdicts for small datasets")
    p_gen = sub.add_parser("generate", parents=[common],
                           help="draw a synthetic dataset from a config file")
    p_gen.add_argument("--config", required=True, help="generator spec (JSON)")
    p_gen.add_argument("--data-out", required=True,
                       help="where to write the dataset (CSV, or JSON by extension)")
    return parser


def _envelope(command: str, float_flag: bool) -> dict:
    """The report skeleton; ``generate`` is on the float lane, flag or not."""
    return {
        "tool": "garpkit",
        "version": __version__,
        "command": command,
        "mode": "float" if float_flag or command == "generate" else "exact",
        "parameters": {},
        "dataset": None,
        "results": {},
    }


def _error_results(err: Exception) -> dict:
    kind = type(err).__name__ if isinstance(err, GarpkitError) else "ValueError"
    error = {"type": kind, "message": str(err)}
    # The message keeps the library's 0-based indices; the *_label fields
    # are 1-based display labels matching the CSV t column.
    for attr in ("observation", "good"):
        value = getattr(err, attr, None)
        if value is not None:
            error[f"{attr}_label"] = value + 1
    for attr in ("row", "column"):
        value = getattr(err, attr, None)
        if value is not None:
            error[attr] = value
    return {"error": error}


def _refused(err: UsageError, argv) -> int:
    """Report arguments argparse refused once the subcommand was known.

    ``--format`` and ``--out`` may be among the refused arguments, so the
    report is JSON on standard output whatever they say.
    """
    words = sys.argv[1:] if argv is None else list(argv)
    report = _envelope(err.command, "--float" in words)
    report["results"] = _error_results(err)
    return _emit(report, "json", None, EXIT_INPUT_ERROR)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:
            raise UsageError(args.command, f"unrecognized arguments: {' '.join(unknown)}")
        # argparse drops a value of "--", as in "--seed=--", and stores an
        # empty list without calling the option's type; no option here
        # takes a list.
        empty = [name for name, value in vars(args).items() if value == []]
        if empty:
            raise UsageError(args.command, f"argument {empty[0]}: expected one value, got '--'")
    except UsageError as err:
        return _refused(err, argv)

    for module in _RUNS[args.command].split():
        import_module(f".{module}", __package__)
    report = _envelope(args.command, not getattr(args, "exact", True))

    try:
        if args.command == "generate":
            report["parameters"] = {"config": args.config, "data_out": args.data_out}
            report["dataset"], report["results"], code = _cmd_generate(args)
        else:
            dataset = parse_input(args.input, args.input_format, exact=args.exact)
            report["dataset"] = _dataset_block(dataset)
            if hasattr(args, "efficiency"):
                args.efficiency_value = _efficiency_argument(args.efficiency)
                report["parameters"]["efficiency"] = args.efficiency
            for name in ("tol", "samples", "seed"):
                if hasattr(args, name):
                    report["parameters"][name] = getattr(args, name)
            command = {"check-garp": _cmd_check_garp, "ccei": _cmd_ccei, "afriat": _cmd_afriat,
                       "verify": _cmd_verify, "oracle": _cmd_oracle}[args.command]
            report["results"], code = command(dataset, args)[:2]
    except (GarpkitError, ValueError) as err:
        report["results"] = _error_results(err)
        code = EXIT_INPUT_ERROR
    return _emit(report, args.format, args.out, code)


def entrypoint() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entrypoint()
