"""Span recorder for one traced garpkit CLI child.

The recorder is installed from outside the package: it replaces public
functions at the names the calling modules look them up under (for example
``garpkit.revpref.cross_expenditures``), so nothing under ``src/`` knows it
exists.  Spans stay in memory and are written as JSON to the path in
``PERFBENCH_TRACE_OUT`` when ``garpkit.cli.main`` returns.

Run a traced command with ``perfbench`` and ``src`` on ``PYTHONPATH``::

    PERFBENCH_TRACE_OUT=trace.json python3 -c \
        "import sys, layertrace; sys.exit(layertrace.run())" check-garp data.csv
"""

from __future__ import annotations

import importlib
import json
import os
import time

# (module that looks the name up, attribute, span name).  A function is
# wrapped at every module that calls it through its own globals, so calls
# from inside the package are seen as well as calls from the CLI.  Names a
# later version of the package no longer has are skipped.
WRAPPED = (
    ("garpkit.cli", "parse_input", "cli.parse_input"),
    ("garpkit.revpref", "cross_expenditures", "model.cross_expenditures"),
    ("garpkit.ccei", "cross_expenditures", "model.cross_expenditures"),
    ("garpkit.afriat", "cross_expenditures", "model.cross_expenditures"),
    ("garpkit.duality", "cross_expenditures", "model.cross_expenditures"),
    ("garpkit.cli", "check_e_garp", "revpref.check_e_garp"),
    ("garpkit.duality", "check_e_garp", "revpref.check_e_garp"),
    ("garpkit.revpref", "direct_relations", "revpref.direct_relations"),
    ("garpkit.afriat", "direct_relations", "revpref.direct_relations"),
    ("garpkit.cli", "ccei_exact", "ccei.ccei_exact"),
    ("garpkit.cli", "ccei_binary_search", "ccei.ccei_binary_search"),
    ("garpkit.cli", "solve_afriat", "afriat.solve_afriat"),
    ("garpkit.cli", "worst_residual", "afriat.worst_residual"),
    ("garpkit.afriat", "worst_residual", "afriat.worst_residual"),
    ("garpkit.duality", "evaluate_utility", "afriat.evaluate_utility"),
    ("garpkit.cli", "verify_rationalization", "duality.verify_rationalization"),
    ("garpkit.cli", "verify_cost_rationalization", "duality.verify_cost_rationalization"),
    ("garpkit.cli", "generate", "datagen.generate"),
)

ROOT_SPAN = "cli.main"


def _breakpoints(result, counts):
    counts["ccei.breakpoints"] = counts.get("ccei.breakpoints", 0) + len(result.breakpoints)


def _samples(result, counts):
    counts["duality.samples_checked"] = (
        counts.get("duality.samples_checked", 0) + result.total_samples
    )
    counts["duality.exhausted"] = counts.get("duality.exhausted", 0) + len(result.exhausted)


# Counters read off a wrapped function's result, after its span has ended.
RESULT_COUNTERS = {
    "ccei.ccei_exact": _breakpoints,
    "duality.verify_rationalization": _samples,
    "duality.verify_cost_rationalization": _samples,
}


class Recorder:
    """Spans ``[name, start, end, parent index]`` and counters of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def wrap(self, name, fn):
        counter = RESULT_COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self.spans.append(span)
            self._open.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                counter(result, self.counts)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self.wrap(span_name, fn))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def run(argv=None) -> int:
    """Install the recorder, run ``garpkit.cli.main`` and write the spans."""
    recorder = Recorder()
    recorder.install()
    cli = importlib.import_module("garpkit.cli")
    main = recorder.wrap(ROOT_SPAN, cli.main)
    try:
        return main(argv)
    finally:
        recorder.write(os.environ["PERFBENCH_TRACE_OUT"])
