"""specloc benchmark: one closed-loop caller, certified answers, and the
end-to-end (``--trace 0``) or per-layer (``--trace 1``) metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from any directory; the package is imported from ``src/`` next to this
directory.  The caller sends the next answer only when the previous one is
back.  Rounds of a fixed composition run until ``--seconds`` have passed,
so every run answers whole rounds.  Every answer is checked against an
oracle (see ``workloads.py``).  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans and a results record
with the environment go to ``.bench_out/`` at the root of the checkout.
See ``bench/README.md`` for the workloads and the metric table.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("circle_winding", "region_index", "path_certify", "cli_reports")
# Fixed for every run, so that a faster commit, which answers more in the
# same time, reports the same percentile: at 24 s per run each workload
# leaves at least ten answers beyond it.
TAIL_PERCENTILE = 75
SETUP_PROBES = 9
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time import plus input generation, print it, exit")
    return parser.parse_args(argv)


def cap_threads() -> int:
    """Cap BLAS threads at the usable core count, for this process and its
    children; set before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    os.environ.pop("SPECLOC_TOL_FACTOR", None)  # every process uses the default policy
    return nproc


def child_json(cmd, env=None) -> dict:
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:3]} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_probe(args) -> int:
    """Import specloc cold and generate the seeded inputs; print the time.

    numpy is imported before the clock starts: its import is not specloc's
    work, and its cold-start time varied by a third between runs."""
    import numpy  # noqa: F401

    start = time.perf_counter()
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=OUT_DIR))
    try:
        workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir)
    print(json.dumps({"setup_s": elapsed}))
    return 0


def setup_probe_seconds(args) -> float:
    """Set-up time of one fresh process; see :func:`setup_probe`."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    return child_json(cmd)["setup_s"]


def cli_import_seconds() -> float:
    """Cold ``import specloc.cli`` (numpy included) in fresh processes."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    code = ("import json, time; t = time.perf_counter(); import specloc.cli; "
            "print(json.dumps(time.perf_counter() - t))")
    cmd = [sys.executable, "-c", code]
    return statistics.median(child_json(cmd, env) for _ in range(IMPORT_PROBES))


def environment(args, nproc) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas = {}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "nproc": nproc,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"), "blas_version": blas.get("version", "unknown"),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "SPECLOC_TOL_FACTOR": os.environ.get("SPECLOC_TOL_FACTOR", "unset"),
        "loop": "closed, one caller",
    }


class Tally:
    """Latency of every answer and the reasons of every failed one."""

    def __init__(self):
        self.latencies = []
        self.labels = []
        self.failures = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def by_label(self) -> str:
        groups = {}
        for label, elapsed in zip(self.labels, self.latencies):
            groups.setdefault(label, []).append(elapsed)
        return ", ".join(f"{label} {statistics.median(v):.4f} s x{len(v)}"
                         for label, v in sorted(groups.items(), key=lambda kv: statistics.median(kv[1])))

    def answer(self, ans) -> float:
        start = time.perf_counter()
        try:
            result = ans.call()
            reason = None
        except Exception as exc:  # an unexpected exception is a failed answer
            result, reason = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if reason is None:
            try:
                reason = ans.check(result, ans.expected)
            except Exception as exc:  # a malformed result is a failed answer
                reason = f"oracle raised {type(exc).__name__}: {exc}"
        self.latencies.append(elapsed)
        self.labels.append(ans.label)
        if reason is not None:
            self.failures.append(f"{ans.label}: {reason}")
        return elapsed


def run_rounds(workload, seconds, play_round, between=lambda played: None) -> int:
    """Play whole rounds until they have taken ``seconds``; return the round count.

    ``between(played)`` runs after each round; its own time is not counted."""
    played = 0.0
    rounds = 0
    while rounds == 0 or played < seconds:
        start = time.perf_counter()
        play_round(rounds, workload.round(rounds))
        played += time.perf_counter() - start
        rounds += 1
        between(played)
    return rounds


def end_to_end(tally, peak_rss_mb, setup_s) -> tuple[dict, int]:
    """The end-to-end metric table, and how many answers lie beyond the tail."""
    lat = tally.latencies
    tail = statistics.quantiles(lat, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    correct = tally.attempted - len(tally.failures)
    return {
        "setup_s": (setup_s, "s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail, "s"),
        "answers_per_s": (correct / sum(lat), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }, sum(v > tail for v in lat)


def measure(args, workload):
    tally = Tally()
    probes = []

    def probe_when_due(played):
        # spread the set-up probes over the run, so that their median sees
        # the same machine as the answers do
        if len(probes) < SETUP_PROBES and played >= len(probes) * args.seconds / SETUP_PROBES:
            probes.append(setup_probe_seconds(args))

    rounds = run_rounds(workload, args.seconds,
                        lambda k, answers: [tally.answer(a) for a in answers], probe_when_due)
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe_seconds(args))
    # probes are child processes, so RUSAGE_SELF is the benchmark's own peak; Linux reports KiB
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics, beyond = end_to_end(tally, peak_rss_mb, statistics.median(probes))
    notes = [f"{tally.attempted} answers in {rounds} rounds; latency_tail_s is p{TAIL_PERCENTILE} "
             f"with {beyond} answers beyond it",
             f"median latency by class: {tally.by_label()}",
             f"failed_frac = {len(tally.failures) / tally.attempted!r}"]
    return tally, metrics, notes


def measure_traced(args, workload):
    import spans

    tally = Tally()
    tracer = spans.Tracer()
    walls = {False: 0.0, True: 0.0}
    traced_answers = 0

    def play(k, answers):
        nonlocal traced_answers
        # the same answers untraced and traced, alternating which goes first
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                for ans in answers:
                    tracer.answer = traced_answers
                    walls[traced] += tally.answer(ans)
                    traced_answers += traced
            finally:
                tracer.uninstall()

    rounds = run_rounds(workload, args.seconds, play)
    metrics = spans.layer_metrics(tracer.spans, traced_answers)
    metrics["cli.import_s"] = (cli_import_seconds(), "s")
    metrics["trace.overhead_frac"] = (walls[True] / walls[False] - 1.0, "frac")
    spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    spans_file.write_text(json.dumps(tracer.as_dicts()), encoding="utf-8")
    notes = [f"{traced_answers} traced answers in {rounds} rounds, each also run untraced; "
             f"{len(tracer.spans)} spans written to {spans_file.relative_to(ROOT)}"]
    return tally, metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_threads()
    if not (ROOT / "src" / "specloc").is_dir():
        print(f"specloc sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)

    import workloads

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
        warmup = Tally()
        warmup.answer(workload.warmup)
        if args.trace:
            tally, metrics, notes = measure_traced(args, workload)
        else:
            tally, metrics, notes = measure(args, workload)
    finally:
        shutil.rmtree(workdir)

    env = environment(args, nproc)
    failures = warmup.failures + tally.failures
    attempted = warmup.attempted + tally.attempted
    for key, value in env.items():
        print(f"# {key}: {value}")
    for note in notes:
        print(f"# {note}")
    for failure in failures[:20]:
        print(f"# FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    record = {"environment": env, "attempted": attempted, "failures": failures,
              "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
              "latencies": list(zip(tally.labels, tally.latencies))}
    result_file = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
