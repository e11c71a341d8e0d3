"""Closed-loop CLI-session benchmark for garpkit.

A single client plays a user's command-line session on seeded dataset
files: ``check-garp``, then ``ccei``, then ``afriat`` at the dataset's
passing efficiency e*, then (on the verify workloads) ``verify`` at e*.  The
next command starts only after the previous one has finished.  Every command
runs in a child interpreter of its own, as a real CLI run does, so each one
pays its own parse and cross-expenditure cost (an in-process loop would let
``lru_cache(cross_expenditures)`` reuse that work across commands).  Every
report is checked; a command whose exit code or report fails a check counts
as failed.

With ``--trace 1`` each session is run twice, untraced and traced.  In the
traced children ``layertrace`` wraps the package's public functions from
outside and the per-layer metrics are self times and counts of its spans.

Run from the repository root::

    python3 perfbench/run.py --workload float-violating --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in this
directory for the workloads and what each metric covers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
import zlib
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "docs" / "report-schema.json"
WORK = ROOT / ".perfbench_work"

CLI_CHILD = "import sys; from garpkit.cli import main; sys.exit(main())"
TRACED_CHILD = "import sys, layertrace; sys.exit(layertrace.run())"

GOODS = 10
ORACLE_ROWS = 8
STARTUP_RUNS = 3
# Set-ups timed per dataset; setup_s is their median.  A ``generate`` set-up
# is a CLI child of its own, as long as a short command, so it runs once.
SETUP_REPEATS = {"random": 5, "generate": 1}
# An untraced session repeats each command until its runs add up to this.  A
# short command gets a few samples per dataset; the rest of the run goes to
# more datasets, because command times vary between datasets as well.
MIN_COMMAND_S = 0.8


@dataclass(frozen=True)
class Workload:
    """One kind of input and the session run on it.

    Attributes:
        lane: "float" (``--float``) or "exact" (the CLI default).
        observations: T; every dataset has ``GOODS`` goods.
        source: "random" draws prices and bundles independently from
            {0.10, ..., 10.00}, so GARP fails; "generate" runs
            ``garpkit generate`` (CES, no waste), so GARP holds.
        verify_samples: samples per observation of the closing ``verify``
            command, or 0 for a session without one.
    """

    lane: str
    observations: int
    source: str
    verify_samples: int = 0


WORKLOADS = {
    "float-violating": Workload("float", 300, "random"),
    "float-consistent": Workload("float", 300, "generate", verify_samples=2000),
    "exact-verify": Workload("exact", 30, "random", verify_samples=10),
}

# afriat has no metric of its own: on a shared machine its run-to-run spread
# is about twice that of the other commands, wider than any bound it could
# be held to.  Its time is in session_s, its layers in the traced run.
COMMAND_METRICS = {"check-garp": "check_garp_s", "ccei": "ccei_s"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "session_s": "s",
    "check_garp_s": "s",
    "ccei_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer time metric -> span whose self time it sums over a session.
SPAN_TIMES = {
    "cli.parse_input_s": "cli.parse_input",
    "cli.self_s": "cli.main",
    "model.cross_expenditures_s": "model.cross_expenditures",
    "revpref.check_e_garp_s": "revpref.check_e_garp",
    "revpref.direct_relations_s": "revpref.direct_relations",
    "ccei.ccei_exact_s": "ccei.ccei_exact",
    "ccei.ccei_binary_search_s": "ccei.ccei_binary_search",
    "afriat.solve_afriat_s": "afriat.solve_afriat",
    "afriat.worst_residual_s": "afriat.worst_residual",
    "afriat.evaluate_utility_s": "afriat.evaluate_utility",
    "duality.verify_rationalization_s": "duality.verify_rationalization",
    "duality.verify_cost_rationalization_s": "duality.verify_cost_rationalization",
}
# Per-layer count metric -> span whose calls it counts over a session.
SPAN_CALLS = {
    "model.cross_expenditures_calls": "model.cross_expenditures",
    "revpref.direct_relations_calls": "revpref.direct_relations",
    "afriat.evaluate_utility_calls": "afriat.evaluate_utility",
}
RESULT_COUNTS = ("ccei.breakpoints", "duality.samples_checked", "duality.exhausted")

PER_LAYER_UNITS = {
    "cli.startup_s": "s",
    **{name: "s" for name in SPAN_TIMES},
    **{name: "count" for name in SPAN_CALLS},
    **{name: "count" for name in RESULT_COUNTS},
    "cli.report_bytes": "bytes",
    "datagen.generate_s": "s",
    "trace.overhead_ratio": "ratio",
}


# ---------------------------------------------------------------- inputs


def _cell(hundredths: int) -> str:
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def random_table(rng: np.random.Generator, observations: int) -> str:
    """CSV text of independent two-decimal draws on {0.10, ..., 10.00}."""
    prices = rng.integers(10, 1001, size=(observations, GOODS))
    bundles = rng.integers(10, 1001, size=(observations, GOODS))
    header = ["t"] + [f"p{i}" for i in range(1, GOODS + 1)] + [f"x{i}" for i in range(1, GOODS + 1)]
    lines = [",".join(header)]
    for t in range(observations):
        cells = [str(t + 1)] + [_cell(v) for v in prices[t]] + [_cell(v) for v in bundles[t]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def generator_config(rng: np.random.Generator, observations: int) -> dict:
    """A CES consumer without waste, for ``garpkit generate``."""
    return {
        "family": "ces",
        "weights": [round(float(w), 3) for w in rng.uniform(0.5, 2.0, GOODS)],
        "elasticity": round(float(rng.uniform(0.3, 0.8)), 3),
        "n_observations": observations,
        "price_range": [0.5, 5.0],
        "income_range": [50.0, 150.0],
        "waste": 0.0,
        "seed": int(rng.integers(2**31)),
    }


def decode(value):
    """A report number: "num/den" strings are exact, JSON numbers floats."""
    return Fraction(value) if isinstance(value, str) else value


def passing_efficiency(ccei: dict):
    """e*: the CCEI if attained, else the breakpoint just below it."""
    value = decode(ccei["ccei_exact"])
    if ccei["attained"]:
        return value
    return max(b for b in map(decode, ccei["breakpoints"]) if b < value)


def efficiency_text(e) -> str:
    return str(e) if isinstance(e, Fraction) else repr(float(e))


def schema_validator(schema: dict):
    """A Draft 2020-12 validator for the report schema.

    Arrays whose items are ``$defs/number`` (the ``ccei`` report's
    ``breakpoints`` hold about 44 000 at T = 300) are checked element by
    element with the same rule, a number or a string the definition's
    pattern matches, instead of one generic validator call per element.
    The result is the same; the generic path takes seconds per report.
    """
    import jsonschema

    base = jsonschema.Draft202012Validator
    number = {k: v for k, v in schema.get("$defs", {}).get("number", {}).items() if k != "description"}
    pattern = ((number.get("oneOf") or [{}])[0]).get("pattern")
    if number != {"oneOf": [{"type": "string", "pattern": pattern}, {"type": "number"}]}:
        return base(schema)
    matches = re.compile(pattern).search
    generic = base.VALIDATORS["items"]

    def items(validator, item_schema, instance, parent):
        if (item_schema != {"$ref": "#/$defs/number"} or "prefixItems" in parent
                or not isinstance(instance, list)):
            yield from generic(validator, item_schema, instance, parent)
            return
        for value in instance:
            if isinstance(value, str) and matches(value):
                continue
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                continue
            yield from generic(validator, item_schema, [value], parent)
            return

    return jsonschema.validators.extend(base, {"items": items})(schema)


# ---------------------------------------------------------------- tracing


def self_times(spans) -> dict[str, float]:
    """Each span's duration minus the part its child spans cover, by name."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, float] = {}
    for (name, start, end, _), inner in zip(spans, covered):
        totals[name] = totals.get(name, 0.0) + (end - start) - inner
    return totals


# ---------------------------------------------------------------- runs


@dataclass
class Child:
    command: str
    code: int
    wall: float
    out: Path
    stderr: str
    trace: dict | None


@dataclass
class DataFile:
    index: int
    path: Path
    parsed: object = None  # garpkit Dataset, parsed when a witness needs it


@dataclass
class Session:
    dataset: int
    walls: dict[str, list[float]] = field(default_factory=dict)  # per command, per run
    self_s: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    digest: str = ""

    @property
    def total(self) -> float:
        """File to all certificates: the sum of each command's median run."""
        return sum(statistics.median(w) for w in self.walls.values())


class Bench:
    """One run of one workload: its children, checks and tallies."""

    def __init__(self, name: str, workload: Workload, seed: int, workdir: Path):
        from garpkit import cli, revpref

        self.name = name
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.cli = cli
        self.revpref = revpref
        self.exact = workload.lane == "exact"
        self.flags = [] if self.exact else ["--float"]
        self.validator = schema_validator(json.loads(SCHEMA.read_text()))
        self.env = dict(
            os.environ,
            PYTHONPATH=str(SRC),
            PYTHONHASHSEED="0",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.traced_env = dict(self.env, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)]))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_kb = 0
        self.setup_walls: list[float] = []
        self.setup_traces: list[dict] = []
        self._serial = 0
        # A session of its own, so that an aborted run can kill the launcher
        # together with the child it is running.
        self.launcher = subprocess.Popen([sys.executable, str(BENCH_DIR / "spawn.py")],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                         start_new_session=True)

    # -------------------------------------------------------- children

    def spawn(self, argv: list[str], traced: bool = False) -> Child:
        """Run one CLI child to completion; time it and read its peak RSS."""
        self._serial += 1
        stem = self.workdir / f"c{self._serial}"
        out, err, trace_path = (stem.with_suffix(s) for s in (".out", ".err", ".trace"))
        env = dict(self.traced_env, PERFBENCH_TRACE_OUT=str(trace_path)) if traced else self.env
        program = TRACED_CHILD if traced else CLI_CHILD
        job = {"argv": [sys.executable, "-c", program, *argv], "cwd": str(self.workdir),
               "env": env, "stdout": str(out), "stderr": str(err)}
        self.launcher.stdin.write(json.dumps(job) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the child launcher exited")
        done = json.loads(reply)
        self.peak_rss_kb = max(self.peak_rss_kb, done["maxrss_kb"])
        trace = json.loads(trace_path.read_text()) if traced and trace_path.exists() else None
        return Child(argv[0], done["code"], done["wall"], out, err.read_text(errors="replace"), trace)

    def close(self, abort: bool) -> None:
        """Stop the child launcher and wait for it; on abort, kill its child too."""
        if abort:
            os.killpg(self.launcher.pid, signal.SIGKILL)
        try:
            self.launcher.stdin.close()
        except BrokenPipeError:
            pass
        self.launcher.wait()
        self.launcher.stdout.close()

    def command(self, argv: list[str], check, traced: bool = False):
        """Run and check one command; return (child, results or None)."""
        child = self.spawn(argv, traced)
        self.attempted += 1
        problems, results = self._report_problems(child)
        if not problems:
            problems = check(child.code, results)
        if problems:
            self.failed += 1
            self.problems.extend(f"{argv[0]} ({child.out.name}): {p}" for p in problems)
            return child, None
        return child, results

    def _report_problems(self, child: Child):
        if "Traceback (most recent call last)" in child.stderr:
            return [f"traceback: {child.stderr.strip().splitlines()[-1]}"], None
        if child.code == 2:
            return ["exit 2"], None
        try:
            report = json.loads(child.out.read_text())
        except ValueError as err:
            return [f"report is not JSON: {err}"], None
        errors = [e.message for e in self.validator.iter_errors(report)]
        if errors:
            return [f"report fails the schema: {errors[0]}"], None
        if report["command"] != child.command or "error" in report["results"]:
            return [f"unexpected report: {report['results'].get('error')}"], None
        return [], report["results"]

    # -------------------------------------------------------- checks

    def _witness_problems(self, ds: DataFile, e, encoded) -> list[str]:
        if encoded is None:
            return ["violation reported without a witness"]
        if ds.parsed is None:
            ds.parsed = self.cli.parse_input(str(ds.path), exact=self.exact)
        witness = self.revpref.CycleWitness(
            indices=tuple(i - 1 for i in encoded["cycle"]),
            strict_edge=encoded["strict_edge"],
        )
        if not self.revpref.validate_witness(ds.parsed, e, witness):
            return [f"witness {encoded} fails validate_witness at e={e}"]
        return []

    def _check_garp(self, ds: DataFile):
        def check(code, r):
            problems = [] if code == (0 if r["holds"] else 1) else [f"exit {code}, holds={r['holds']}"]
            if self.workload.source == "generate" and not r["holds"]:
                problems.append("GARP fails on data from a utility maximiser")
            if not r["holds"]:
                problems += self._witness_problems(ds, 1, r["witness"])
            return problems
        return check

    def _check_ccei(self, ds: DataFile):
        def check(code, r):
            problems = [] if code == 0 else [f"exit {code}"]
            if not r["agreement"]:
                problems.append("exact and bisected CCEI disagree")
            if self.workload.source == "generate" and not (
                    decode(r["ccei_exact"]) == 1 and r["garp_at_one"]):
                problems.append(f"CCEI {r['ccei_exact']} on consistent data")
            if r["witness_above"] is not None:
                problems += self._witness_problems(ds, decode(r["witness_probe"]), r["witness_above"])
            return problems
        return check

    @staticmethod
    def _check_afriat(code, r):
        problems = [] if code == 0 else [f"exit {code}"]
        if not r.get("feasible") or not r["worst_residual"] <= 0:
            problems.append(f"feasible={r.get('feasible')} worst_residual={r.get('worst_residual')}")
        return problems

    @staticmethod
    def _check_verify(code, r):
        problems = [] if code == 0 else [f"exit {code}"]
        if not (r["rationalization"] and r["rationalization"]["clean"]
                and r["cost_rationalization"] and r["cost_rationalization"]["clean"]
                and r["duality_consistent"]):
            problems.append("verification not clean or duality inconsistent")
        return problems

    # -------------------------------------------------------- phases

    def startup(self) -> float:
        """Wall time of ``--version``: interpreter start plus package import."""
        child = self.spawn(["--version"])
        self.attempted += 1
        if child.code != 0 or not child.out.read_text().strip():
            self.failed += 1
            self.problems.append(f"--version: exit {child.code}")
        return child.wall

    def setup(self, index: int, traced: bool) -> DataFile:
        """Draw dataset ``index`` of this run and write its file, timed.

        Every repeat draws and writes the same dataset again.
        """
        path = self.workdir / f"d{index}.csv"
        for _ in range(SETUP_REPEATS[self.workload.source]):
            self.setup_walls.append(self._setup_once(index, path, traced))
        return DataFile(index, path)

    def _setup_once(self, index: int, path: Path, traced: bool) -> float:
        start = time.perf_counter()
        rng = np.random.default_rng([self.seed, zlib.crc32(self.name.encode()), index])
        if self.workload.source == "random":
            path.write_text(random_table(rng, self.workload.observations))
        else:
            config = self.workdir / f"d{index}-config.json"
            config.write_text(json.dumps(generator_config(rng, self.workload.observations)))
            child, _ = self.command(
                ["generate", "--config", str(config), "--data-out", str(path)],
                lambda code, r: [] if code == 0 and decode(r["ccei"]) == 1
                else [f"exit {code}, ccei {r['ccei']}"],
                traced,
            )
            if child.trace is not None:
                self.setup_traces.append(child.trace)
        return time.perf_counter() - start

    def oracle_spot_check(self, ds: DataFile) -> None:
        """Untimed: on the first rows, ``oracle`` agrees with check-garp and ccei."""
        head = self.workdir / f"d{ds.index}-head.csv"
        head.write_text("".join(ds.path.read_text().splitlines(keepends=True)[: ORACLE_ROWS + 1]))
        results = {}
        for command in ("oracle", "check-garp", "ccei"):
            out = self.workdir / f"d{ds.index}-head-{command}.json"
            code = self.cli.main([command, str(head), *self.flags, "--out", str(out)])
            results[command] = (code, json.loads(out.read_text())["results"])
        (o_code, oracle), (g_code, garp), (_, ccei) = results.values()
        o_ccei, p_ccei = decode(oracle["ccei"]), decode(ccei["ccei_exact"])
        same_ccei = o_ccei == p_ccei if self.exact else abs(o_ccei - p_ccei) <= 1e-9
        if o_code != g_code or oracle["garp_holds"] != garp["holds"] or not same_ccei:
            self.problems.append(
                f"oracle disagrees on the first {ORACLE_ROWS} rows of d{ds.index}: "
                f"holds {oracle['garp_holds']} vs {garp['holds']}, ccei {o_ccei} vs {p_ccei}"
            )

    def session(self, ds: DataFile, traced: bool, repeat: bool) -> Session:
        """check-garp, ccei, afriat at e*, and verify at e* when the workload has it.

        With ``repeat``, each command runs again until its runs add up to
        ``MIN_COMMAND_S``; every repeat must report the same results.
        """
        session = Session(ds.index)
        data = [str(ds.path), *self.flags]
        outcome: dict[str, dict | None] = {}

        def run(argv, check):
            walls = session.walls.setdefault(argv[0], [])
            while not walls or (repeat and sum(walls) < MIN_COMMAND_S):
                child, results = self.command(argv, check, traced)
                walls.append(child.wall)
                self._tally(session, child)
                first = outcome.setdefault(argv[0], results)
                if results is not None and first is not None and results != first:
                    self.problems.append(f"d{ds.index}: repeated {argv[0]} reports differ")

        run(["check-garp", *data], self._check_garp(ds))
        run(["ccei", *data], self._check_ccei(ds))
        closing = [(["afriat", *data], self._check_afriat)]
        if self.workload.verify_samples:
            samples = str(self.workload.verify_samples)
            closing.append((["verify", *data, "--samples", samples, "--seed", "0"], self._check_verify))
        e_star = None if outcome["ccei"] is None else passing_efficiency(outcome["ccei"])
        if e_star is None:
            self.attempted += len(closing)
            self.failed += len(closing)
            self.problems.append(f"d{ds.index}: no e* without a ccei report; skipped "
                                 f"{[argv[0] for argv, _ in closing]}")
        else:
            for argv, check in closing:
                run([*argv, "--efficiency", efficiency_text(e_star)], check)
        session.digest = result_digest(outcome, e_star)
        return session

    @staticmethod
    def _tally(session: Session, child: Child) -> None:
        session.counts["cli.report_bytes"] += child.out.stat().st_size
        if child.trace is not None:
            session.self_s.update(self_times(child.trace["spans"]))
            session.counts.update(Counter(span[0] for span in child.trace["spans"]))
            session.counts.update(child.trace["counts"])


def result_digest(outcome: dict, e_star) -> str:
    """Hash of the certificates a later change must not alter.

    Covers verdicts, witness cycles, the CCEI value, ``attained``,
    ``witness_above`` and verification violation counts.  Leaves out the
    ``breakpoints`` list and float ``phi``/``lam``, which later work may
    legitimately change.
    """
    def pick(command, *keys):
        results = outcome.get(command)
        return None if results is None else {k: results[k] for k in keys}

    verify = outcome.get("verify")
    content = {
        "check-garp": pick("check-garp", "holds", "witness"),
        "ccei": pick("ccei", "ccei_exact", "attained", "garp_at_one", "witness_above"),
        "e_star": None if e_star is None else efficiency_text(e_star),
        "afriat": pick("afriat", "feasible"),
        "verify": None if verify is None else [
            (verify[k]["clean"], len(verify[k]["violations"]))
            for k in ("rationalization", "cost_rationalization")
        ],
    }
    return hashlib.sha256(json.dumps(content, sort_keys=True).encode()).hexdigest()


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def session_time(sessions: list[Session]) -> float:
    """File to all certificates for a typical dataset of the run.

    The sum over the session's commands of each command's median wall time
    over all its runs in ``sessions``, so every run of every command counts.
    """
    walls: dict[str, list[float]] = {}
    for s in sessions:
        for command, w in s.walls.items():
            walls.setdefault(command, []).extend(w)
    return sum(statistics.median(w) for w in walls.values())


def _check_digests(bench: Bench, sessions: list[Session]) -> str:
    """Sessions of one dataset, and earlier runs of this seed, must agree.

    Returns the digest of the run's first dataset, which every run of the
    seed has.
    """
    first: dict[int, str] = {}
    for s in sessions:
        if first.setdefault(s.dataset, s.digest) != s.digest:
            bench.problems.append(f"d{s.dataset}: traced and untraced sessions give different results")
    stem = f"{bench.name}-T{bench.workload.observations}-seed{bench.seed}"
    for index, digest in first.items():
        store = WORK / "digests" / f"{stem}-d{index}.sha256"
        store.parent.mkdir(parents=True, exist_ok=True)
        if not store.exists():
            tmp = store.with_suffix(".tmp")
            tmp.write_text(digest + "\n")
            os.replace(tmp, store)
        elif store.read_text().strip() != digest:
            bench.problems.append(f"d{index}: result digest differs from an earlier run of this seed")
    return first[0]


def run(name: str, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object."""
    workdir = WORK / f"run-{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    bench = Bench(name, workload, seed, workdir)
    aborted = True
    try:
        start = time.perf_counter()
        bench.spawn(["--version"])  # untimed: compile the package once before timing
        startup = [bench.startup() for _ in range(STARTUP_RUNS)] if trace else []
        plain: list[Session] = []
        traced: list[Session] = []
        while True:
            began = time.perf_counter()
            ds = bench.setup(len(plain), trace)
            bench.oracle_spot_check(ds)
            # A traced run pairs single passes, so that the overhead ratio
            # compares like with like.
            plain.append(bench.session(ds, traced=False, repeat=not trace))
            if trace:
                traced.append(bench.session(ds, traced=True, repeat=False))
            for s in plain[-1:] + traced[-1:]:
                walls = " ".join(f"{c} {statistics.median(w):.3f}x{len(w)}" for c, w in s.walls.items())
                print(f"session d{s.dataset}{' traced' if s.self_s else ''}: {walls}; total {s.total:.3f} s",
                      file=sys.stderr)
            # Start another session only if one as long as this should fit.
            now = time.perf_counter()
            if now - start + (now - began) > seconds:
                break
        seed_digest = _check_digests(bench, plain + traced)
        aborted = False
    finally:
        bench.close(abort=aborted)
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics = _per_layer(bench, startup, plain, traced)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": _median(bench.setup_walls),
            "session_s": session_time(plain),
            **{metric: _median([w for s in plain for w in s.walls.get(c, [])])
               for c, metric in COMMAND_METRICS.items()},
            "peak_rss_mb": bench.peak_rss_kb / 1024,
        }
        units = END_TO_END_UNITS
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{name} seed={seed}: {len(plain)} datasets and sessions"
          f"{f' (+{len(traced)} traced)' if trace else ''}, {len(bench.setup_walls)} set-ups, "
          f"{bench.attempted} commands, {bench.failed} failed; medians over those; "
          f"result digest of d0 {seed_digest[:16]}")
    return {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def _per_layer(bench: Bench, startup, plain, traced) -> dict:
    # Counts come from the first dataset, which every run of a seed has, so
    # they repeat exactly however many sessions fit in the run.
    first = traced[0]
    metrics = {name: _median([s.self_s[span] for s in traced]) for name, span in SPAN_TIMES.items()}
    metrics.update({name: first.counts[span] for name, span in SPAN_CALLS.items()})
    metrics.update({name: first.counts[name] for name in (*RESULT_COUNTS, "cli.report_bytes")})
    metrics["cli.startup_s"] = _median(startup)
    metrics["datagen.generate_s"] = _median(
        [self_times(t["spans"]).get("datagen.generate", 0.0) for t in bench.setup_traces])
    metrics["trace.overhead_ratio"] = session_time(traced) / session_time(plain)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep starting sessions until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in (SRC / "garpkit" / "cli.py", SCHEMA) if not p.is_file()]
    if missing:
        print(f"perfbench: run from a garpkit checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
