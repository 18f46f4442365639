"""Benchmark of engel-lab, driven through its CLI entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports ``engel_lab`` from its
``src/``.  A run repeats whole rounds of the workload's ``engel-lab`` command
lines (see ``workloads.py``) in this one process, clearing every
``functools`` cache of the package before each command, as a fresh process
would start.  Rounds follow until the next would end after ``--seconds``
(at least three; four with tracing, so that untraced and traced rounds
alternate in equal numbers).

Untraced rounds run under ``speed.SpeedSampler``, and their times are given
at its fixed nominal speed (see ``speed.py``), so that the host's own
slowdowns move them little.  The first round's outputs are checked after the
timed region against ``outputchecks``; every later round must reproduce them
byte for byte.  A run is correct only if no command failed and every check
passed.  Without tracing, import probes (``setup_s``) run between commands,
spread over the run.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and the metrics, end-to-end ones with ``--trace 0`` and
per-layer ones with ``--trace 1``.  The same object and, with tracing, the
spans of the first traced round are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import layertrace
import outputchecks
import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MIN_ROUNDS = 3
MIN_TRACED_RUN_ROUNDS = 4  # two untraced and two traced
SETUP_SAMPLES = 15
SETUP_TIMEOUT_S = 60
ROUND_MODES = ("plain", "traced")

# Times one import of the package (and so of numpy and networkx) in a fresh
# interpreter, at the sampler's nominal speed; argv[1] is the package's
# source directory, argv[2] the benchmark's.  Refuses a copy of engel_lab
# found anywhere but in argv[1].
IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[2])
import speed
sys.path[0] = sys.argv[1]
with speed.SpeedSampler() as sampler:
    start = time.perf_counter()
    import engel_lab.cli
    end = time.perf_counter()
if not engel_lab.__file__.startswith(sys.argv[1]):
    sys.exit("engel_lab imported from " + engel_lab.__file__)
print(repr(sampler.measure([(start, end)])[1]))
"""


def probe_import() -> float:
    """Import time of the package in one fresh interpreter, at the
    sampler's nominal speed."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(BENCH)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"import probe failed: {done.stderr.strip()}")
    return float(done.stdout)


class Bench:
    def __init__(self, workload: str, ops: list[list[str]], seed: int, seconds: float,
                 trace: bool, probes: int, keep_dir: Path):
        import engel_lab.cli
        import engel_lab.verify

        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.cli_main = engel_lab.cli.main
        self.claim_count = lambda: len(engel_lab.verify.all_claims())
        self.caches = layertrace.lru_caches()
        self.tracer = layertrace.LayerTracer(self.caches) if trace else None
        self.ops = ops
        self.probes = probes
        self.setup_samples: list[float] = []
        self.keep_dir = keep_dir
        self.attempted = self.failed = 0
        self.digests: list[str | None] = [None] * len(self.ops)
        self.kept: list[Path | None] = [None] * len(self.ops)
        self.mismatches: list[str] = []
        self.sampler = speed.SpeedSampler()
        # per mode, per round: the (start, end) of each command that succeeded
        self.rounds: dict[str, list[list[tuple[float, float]]]] = {m: [] for m in ROUND_MODES}
        self.layer_rounds: list[dict[str, float]] = []
        self.first_spans: list[tuple] | None = None

    # -- one CLI call --------------------------------------------------------

    def _call(self, argv: list[str], traced: bool):
        """Run one CLI call on cleared caches; (exit code or error, stdout,
        (start, end))."""
        layertrace.clear_caches(self.caches)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if traced:
                    code = self.tracer.call(layertrace.ROOT_LAYER, self.cli_main, argv)
                else:
                    code = self.cli_main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = traceback.format_exc()
        end = time.perf_counter()
        if code != 0:
            code = f"{code}\n{err.getvalue()[-2000:]}"
        return code, out.getvalue(), (start, end)

    def _run_op(self, i: int, traced: bool) -> tuple[float, float] | None:
        """Run op i once; its (start, end), or None if it failed."""
        argv = self.ops[i]
        code, text, interval = self._call(argv, traced)
        data = text.encode()
        if traced:
            self.tracer.end_op(len(data))
        layertrace.clear_caches(self.caches)
        self.attempted += 1
        if code != 0:
            self.failed += 1
            print(f"failed: {' '.join(argv)}: {code}", file=sys.stderr)
            return None
        digest = hashlib.sha256(data).hexdigest()
        if self.digests[i] is None:
            self.digests[i] = digest
            self.kept[i] = self.keep_dir / f"op{i}.out"
            self.kept[i].write_bytes(data)
        elif digest != self.digests[i]:
            self.mismatches.append(f"repeat: {' '.join(argv)} changed its output")
        return interval

    # -- rounds --------------------------------------------------------------

    def _probe_setup(self, start: float) -> None:
        """Take the import probes that are due, spread evenly over the run's
        seconds."""
        while (len(self.setup_samples) < self.probes
               and time.perf_counter() - start
               >= len(self.setup_samples) * self.seconds / self.probes):
            self.sampler.stop()
            try:
                self.setup_samples.append(probe_import())
            finally:
                self.sampler.start()

    def _run_round(self, mode: str, start: float) -> float:
        """One round; the sum of its commands' times."""
        traced = mode == "traced"
        intervals = []
        gc.collect()  # a whole collection costs ~10 ms, too much for each small op
        if traced:
            self.tracer.reset()
            self.tracer.install()
        else:
            self.sampler.start()
        try:
            for i in range(len(self.ops)):
                if not traced:
                    self._probe_setup(start)
                interval = self._run_op(i, traced)
                if interval is not None:
                    intervals.append(interval)
        finally:
            if traced:
                self.tracer.uninstall()
            else:
                self.sampler.stop()
        self.rounds[mode].append(intervals)
        if traced:
            self.layer_rounds.append(self.tracer.round_metrics())
            if self.first_spans is None:
                self.first_spans = self.tracer.spans
        return sum(end - begin for begin, end in intervals)

    def run(self) -> None:
        tracing = self.tracer is not None
        min_rounds = MIN_TRACED_RUN_ROUNDS if tracing else MIN_ROUNDS
        start = time.perf_counter()
        durations = []
        while True:
            mode = "traced" if tracing and len(durations) % 2 else "plain"
            durations.append(self._run_round(mode, start))
            elapsed = time.perf_counter() - start
            done = len(durations) >= min_rounds and (not tracing or len(durations) % 2 == 0)
            if done and elapsed + statistics.median(durations) > self.seconds:
                break
        while len(self.setup_samples) < self.probes:
            self.setup_samples.append(probe_import())
        print(f"{self.workload}: {len(durations)} rounds in {elapsed:.1f} s: "
              + " ".join(f"{d:.2f}" for d in durations), file=sys.stderr)

    # -- after the timed region ---------------------------------------------

    def fetch(self, argv: list[str]) -> str:
        """A further program output for a check; not timed, not counted."""
        code, text, _ = self._call(argv, traced=False)
        layertrace.clear_caches(self.caches)
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)}: {code}")
        return text

    def check(self) -> list[str]:
        """Failed commands, failed checks and changed repeats; empty if the
        run is correct."""
        errors = [f"failed: {' '.join(argv)} produced no output"
                  for argv, kept in zip(self.ops, self.kept) if kept is None]
        if self.failed:
            errors.append(f"failed: {self.failed} of {self.attempted} commands failed")
        ctx = outputchecks.Context(
            run_cli=self.fetch,
            claim_count=self.claim_count,
            rng=random.Random(f"check:{self.workload}:{self.seed}"),
        )
        outputs = [p.read_text() if p is not None else None for p in self.kept]
        errors += outputchecks.check_round(self.workload, self.ops, outputs, ctx)
        return errors + self.mismatches

    def plain_rounds(self) -> list[tuple[float, float]]:
        """(seconds less the sampler's, seconds at nominal speed) of each
        untraced round's successful commands."""
        return [self.sampler.measure(r) for r in self.rounds["plain"]]

    def end_to_end(self, peak_rss_mb: float) -> dict[str, tuple[float, str]]:
        """``wall_s`` is the median untraced round at nominal speed.
        ``setup_s`` is the median import time over the run's probes (the
        first in a new checkout also compiles bytecode; the median leaves
        it out)."""
        return {
            "wall_s": (statistics.median(s for _, s in self.plain_rounds()), "s"),
            "setup_s": (statistics.median(self.setup_samples), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        first = self.layer_rounds[0]
        out = {m: (statistics.median(r[m] for r in self.layer_rounds), "s")
               for m in layertrace.TIME_METRICS}
        for table in (layertrace.COUNT_METRICS, layertrace.MAX_METRICS):
            for m, unit in table.items():
                out[m] = (first[m], unit)
                if any(r[m] != first[m] for r in self.layer_rounds):
                    print(f"warning: {m} differs between traced rounds", file=sys.stderr)
        traced = statistics.median(sum(e - b for b, e in r) for r in self.rounds["traced"])
        plain = statistics.median(net for net, _ in self.plain_rounds())
        out["trace.wall_s"] = (traced, "s")
        out["trace.overhead_s"] = (traced - plain, "s")
        return out

    def write_spans(self, path: Path) -> None:
        op = -1
        with path.open("w") as fh:
            base = min((s[4] for s in self.first_spans), default=0.0)
            for span_id, parent, layer, fn, start, end in self.first_spans:
                if parent is None:
                    op += 1
                fh.write(json.dumps({
                    "span": span_id, "parent": parent, "op": op, "layer": layer,
                    "function": fn, "start_s": start - base, "end_s": end - base,
                }) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "engel_lab" / "__init__.py").is_file():
        print(f"no engel_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import engel_lab

    if not Path(engel_lab.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"engel_lab imported from {engel_lab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    keep_dir = Path(tempfile.mkdtemp(prefix="outputs-", dir=OUT_DIR))
    try:
        bench = Bench(args.workload, workloads.operations(args.workload, args.seed), args.seed,
                      args.seconds, bool(args.trace), 0 if args.trace else SETUP_SAMPLES,
                      keep_dir)
        bench.run()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check_start = time.perf_counter()
        errors = bench.check()
        print(f"checks: {time.perf_counter() - check_start:.1f} s", file=sys.stderr)
    finally:
        shutil.rmtree(keep_dir, ignore_errors=True)
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)

    metrics = bench.per_layer() if args.trace else bench.end_to_end(peak_rss_mb)
    result = {
        "correct": not errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        bench.write_spans(OUT_DIR / f"spans-{stem}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
