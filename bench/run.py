#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of ptrac.

    python3 bench/run.py [--workload NAME] --seed N --seconds S --trace 0|1

Without --workload it runs every workload in turn, printing each one's
result line after a ``== NAME`` line.

The program is the package under ``src/`` next to this directory, so the
command works from any directory. The run writes the workload's lexicon
for the seed, then repeats whole rounds for S seconds, starting none
that would end later (the first always runs). A round is

* ``SETUP_RUNS`` runs of ``ptrac pairs`` (set-up: start, import, load the
  inventory),
* one run of the workload's CLI command,
* one run of layers.py, which does the same work through the public API,
* with ``--trace 1``, one more run of layers.py with a span around each
  call into each layer.

Each of these is a child process. Before each, and once after the last
round, the spawner (pinned, with its children, to one CPU) times
calibrate.py's fixed unit of work; every time sample is scaled by
calibrate.REFERENCE_S / the mean time of the two calibrations around it,
which takes out most of the drift of the machine's speed, and the run
reports medians of the scaled samples. Every output is checked against
reference.py. The last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end with ``--trace 0``,
per-layer with ``--trace 1``). The traced run also writes its spans to
``.bench_trace/``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import reference
from workloads import LIMIT, WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
INVENTORY = SRC / "ptrac" / "data" / "persian.inv"
SETUP_RUNS = 5

END_TO_END_UNITS = {"setup_s": "s", "cli_wall_s": "s", "words_per_s": "words/s",
                    "library_wall_s": "s", "peak_rss_mb": "MB"}
# sampled each round; words_per_s is derived from cli_wall_s
MEASURED = ("setup_s", "cli_wall_s", "library_wall_s", "peak_rss_mb")
LAYER_TIMES = ("inventory.parse_s", "lexicon.parse_s", "syllabifier.syllabify_s",
               "core.extract_s", "core.enumerate_s", "core.count_s",
               "core.aggregate_s", "core.list_pairs_s", "report.render_s",
               "trace.overhead_s")
LAYER_COUNTS = ("lexicon.entries", "lexicon.diagnostics", "syllabifier.syllables",
                "syllabifier.rejected", "core.sequences", "core.occurrences",
                "core.excluded", "core.pairs", "core.frames", "core.list_pairs_rows",
                "core.witnesses", "report.bytes", "cli.stderr_lines")


class Spawner:
    """Client of spawner.py, started before this process grows."""

    def __init__(self, env):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=env)

    def run(self, argv, stdout, stderr):
        req = {"argv": [sys.executable] + argv, "stdout": str(stdout), "stderr": str(stderr)}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner exited")
        return json.loads(reply)

    def calibrate(self):
        self.proc.stdin.write(json.dumps({"calibrate": True}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner exited")
        return json.loads(reply)["wall_s"]

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


class Bench:
    def __init__(self, name, args, work, spawner):
        self.name = name
        self.args = args
        self.w = WORKLOADS[name]
        self.work = work
        self.spawner = spawner
        self.ref_inv = reference.read_inventory(INVENTORY)
        self.gen = generate(name, args.seed, sorted(self.ref_inv.consonants),
                            sorted(self.ref_inv.vowels))
        self.lexicon = work / "lexicon.tsv"
        self.lexicon.write_text(self.gen.text, encoding="utf-8")
        self._expect()
        self.attempted = self.failed = 0
        self.correct = True
        self.samples = {name: [] for name in MEASURED}
        self.calibrations = []  # seconds of each calibrate.calibrate()
        # per sample, the index of the calibration just before it
        self.cal_before = {name: [] for name in MEASURED}
        self.traced = []  # layers.py results of the traced runs
        self.stderr_lines = None

    def _expect(self):
        w, gen, inv = self.w, self.gen, self.ref_inv
        freq = reference.sequence_counts(gen.words, w.study)
        pairs = reference.minimal_pairs(freq, inv)
        if w.fmt:
            self.want = reference.table(pairs, freq, w.scheme, inv)
            self.meta = {"diagnostics": len(gen.invalid) + len(gen.untokenizable),
                         "weighting": "type-frequency", "orientation": "unordered",
                         "scheme": w.scheme, "study": w.study,
                         "features": list(reference.FEATURES)}
        else:
            self.want = {(a, b): (reference.frame(a, pos), min(freq[a], freq[b]))
                         for a, b, pos, feature in pairs
                         if feature == w.feature
                         and reference.context(a, pos, w.scheme, inv) == w.context}
            self.carried = {orth: set(reference.study_sequences(syls, w.study))
                            for orth, syls in gen.words.items()}

    def _check_output(self, output):
        """output: rendered text for analyze, rows for list-pairs."""
        w = self.w
        if w.fmt == "csv":
            return reference.check_csv(output, self.want)
        if w.fmt == "json":
            return reference.check_json(output, self.want, self.meta)
        return reference.check_drilldown(output, self.want, self.ref_inv, w.feature,
                                         self.carried, LIMIT)

    def _record(self, label, problems):
        if problems:
            self.correct = False
            for p in problems[:5]:
                print("bench: %s: %s" % (label, p), file=sys.stderr)

    def _spawn(self, label, argv):
        """One child run; returns (spawner reply, stdout text, stderr text),
        or None after counting the run as failed."""
        self.attempted += 1
        out, err = self.work / "child.out", self.work / "child.err"
        res = self.spawner.run(argv, out, err)
        stderr = err.read_text(encoding="utf-8")
        if res["exit"] != 0:
            self.failed += 1
            print("bench: %s failed: %s" % (label, stderr[-1000:]), file=sys.stderr)
            return None
        return res, out.read_text(encoding="utf-8"), stderr

    def setup_op(self):
        done = self._spawn("ptrac pairs", ["-m", "ptrac.cli", "pairs", "--inventory",
                                           str(INVENTORY)])
        if done:
            res, stdout, _ = done
            self._record("ptrac pairs", reference.check_pairs_listing(stdout, self.ref_inv))
            self._sample("setup_s", res["wall_s"])

    def cli_op(self):
        done = self._spawn("CLI", ["-m", "ptrac.cli"]
                           + self.w.cli_args(INVENTORY, self.lexicon))
        if done:
            res, stdout, stderr = done
            try:
                output = stdout if self.w.fmt else reference.parse_drilldown(stdout)
                self._record("CLI stdout", self._check_output(output))
            except ValueError as exc:
                self._record("CLI stdout", ["unreadable list-pairs line: %s" % exc])
            self._record("CLI stderr", reference.check_stderr(stderr, self.gen))
            self.stderr_lines = stderr.count("\n")
            self._sample("cli_wall_s", res["wall_s"])
            self._sample("peak_rss_mb", res["maxrss_kb"] * 1024 / 1e6)

    def library_op(self, traced=False):
        result_path = self.work / "layers.json"
        argv = [str(BENCH / "layers.py"), self.name, str(INVENTORY),
                str(self.lexicon), str(result_path)] + (["--trace"] if traced else [])
        label = "traced library" if traced else "library"
        if not self._spawn(label, argv):
            return
        result = json.loads(result_path.read_text(encoding="utf-8"))
        output = result["output"]
        if not self.w.fmt:
            output = [(tuple(a), tuple(b), fr, feat, weight, witnesses)
                      for a, b, fr, feat, weight, witnesses in output]
        self._record(label, self._check_output(output) + reference.check_exclusions(
            result["excluded"], result["diagnostics"], self.gen))
        if traced:
            del result["output"]
            result["cal_before"] = len(self.calibrations) - 1
            self.traced.append(result)
        else:
            self._sample("library_wall_s", result["wall_s"])

    def _sample(self, name, value):
        self.samples[name].append(value)
        self.cal_before[name].append(len(self.calibrations) - 1)

    def _scale(self, cal_before):
        """Factor for a time sample taken between calibrations
        cal_before and cal_before + 1."""
        around = self.calibrations[cal_before:cal_before + 2]
        return calibrate.REFERENCE_S / statistics.fmean(around)

    def _scaled(self, name):
        return [x * self._scale(i) for x, i in zip(self.samples[name], self.cal_before[name])]

    def run(self):
        start = time.perf_counter()
        rounds = 0
        # stop before a round that would end past --seconds (one at least)
        while rounds == 0 or (time.perf_counter() - start) * (rounds + 1) / rounds \
                <= self.args.seconds:
            self.calibrate()
            for _ in range(SETUP_RUNS):
                self.setup_op()
            self.calibrate()
            self.cli_op()
            self.calibrate()
            self.library_op()
            if self.args.trace:
                self.calibrate()
                self.library_op(traced=True)
            rounds += 1
        self.calibrate()
        cals = self.calibrations
        print("bench: calibration median %.6g s of %d, min %.6g, max %.6g; raw "
              "times below, reported ones are scaled to %.6g s"
              % (statistics.median(cals), len(cals), min(cals), max(cals),
                 calibrate.REFERENCE_S), file=sys.stderr)
        metrics = self._layer_metrics() if self.args.trace else self._end_to_end()
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}

    def calibrate(self):
        self.calibrations.append(self.spawner.calibrate())

    def _end_to_end(self):
        values = {}
        for name in MEASURED:
            xs = self.samples[name]
            unit = END_TO_END_UNITS[name]
            print("bench: %s median %.6g of %d, min %.6g, max %.6g %s"
                  % (name, statistics.median(xs), len(xs), min(xs), max(xs), unit),
                  file=sys.stderr)
            values[name] = statistics.median(self._scaled(name) if unit == "s" else xs)
        print("bench: raw " + json.dumps({"calibration_s": self.calibrations,
                                          "samples": self.samples,
                                          "cal_before": self.cal_before}), file=sys.stderr)
        values["words_per_s"] = self.gen.lines / values["cli_wall_s"]
        return {name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END_UNITS.items()}

    def _layer_metrics(self):
        # Every layer figure comes from the one traced run whose total is
        # the (low) median, so the stage times add up to that total.
        totals = [_pipeline_total(r) * self._scale(r["cal_before"]) for r in self.traced]
        run = self.traced[totals.index(statistics.median_low(totals))]
        scale = self._scale(run["cal_before"])
        busy = {n["parent"]: n["busy_s"] for n in run["nested"]}
        values = {name: 0.0 for name in LAYER_TIMES}
        for span in run["spans"]:
            name = span["name"] + "_s"
            values[name] += span["end_s"] - span["start_s"] - busy.get(span["name"], 0.0)
        values["syllabifier.syllabify_s"] = sum(busy.values())
        for name in LAYER_TIMES:
            values[name] *= scale
        values["trace.overhead_s"] = (_pipeline_total(run) * scale
                                      - statistics.median(self._scaled("library_wall_s")))
        values.update(run["counts"])
        values["cli.stderr_lines"] = self.stderr_lines
        self._write_trace()
        return {name: {"value": values[name], "unit": "s" if name in LAYER_TIMES else "count"}
                for name in LAYER_TIMES + LAYER_COUNTS}

    def _write_trace(self):
        out = ROOT / ".bench_trace"
        out.mkdir(exist_ok=True)
        path = out / ("%s-seed%d.json" % (self.name, self.args.seed))
        doc = {"workload": self.name, "seed": self.args.seed,
               "library_wall_s": self.samples["library_wall_s"],
               "library_cal_before": self.cal_before["library_wall_s"],
               "calibration_s": self.calibrations,
               "reference_s": calibrate.REFERENCE_S,
               "traced_runs": self.traced}
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _pipeline_total(result):
    return sum(s["end_s"] - s["start_s"] for s in result["spans"]
               if s["name"] != "inventory.parse")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="one workload (default: each in turn)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ptrac" / "__init__.py").is_file() or not INVENTORY.is_file():
        print("bench: no ptrac source under %s" % SRC, file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    status = 0
    for name in [args.workload] if args.workload else list(WORKLOADS):
        work = ROOT / ".bench_work" / ("%s-%d-%d" % (name, args.seed, os.getpid()))
        work.mkdir(parents=True)
        spawner = Spawner(env)
        try:
            result = Bench(name, args, work, spawner).run()
        finally:
            spawner.close()
            shutil.rmtree(work, ignore_errors=True)
        if not args.workload:
            print("== %s" % name)
        print(json.dumps(result))
        status = status or (0 if result["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
