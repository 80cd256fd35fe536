"""End-to-end benchmark of the twistmoments command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload

Run from the root of a source checkout.  Every operation is one fresh
`python3 -m twistmoments.cli ...` process, started one after another, so at
most one CLI child runs at a time.  A run is:

1. set-up: SETUP_RUNS fresh `weights` processes; setup_s is their median
   wall time (interpreter start, imports, both kernel grids);
2. warm-up (warm-* workloads): one untimed call for each distinct table
   the rounds need, which fills their --cache-dir through the program's own
   table path;
3. timed rounds: the workload's operations, in a seed-dependent order,
   repeated as whole rounds until --seconds have passed (at least
   Workload.min_rounds).  Twice in each round, before its first and its
   middle operation, a fresh perfbench/calibrate.py process does a fixed
   piece of work that does not touch the package; the median wall time of
   these calibration jobs scales the throughput to a host of nominal speed.

Each operation's output is checked by perfbench/checks.py.  An operation
that fails is allowed only through the known tau fault (checks.check_failure)
and is counted in `failed`; any other failure makes `correct` false.

With --trace 1 the operations run under perfbench/trace_cli.py, which
records spans around the package's public functions; the run then reports
per-layer metrics, writes every span to .perfbench_work/, and prints the
tracing overhead against untraced rounds interleaved with the traced ones.  The last line of standard
output is always one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402

WORK = ".perfbench_work"
SETUP_RUNS = 3
# norm_ok_ops_per_min is verified operations per minute on a host where the
# calibration job takes REF_NOMINAL_S seconds
REF_NOMINAL_S = 1.0
CALIBRATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "calibrate.py")
DEADLINE_S = 170.0          # every run must exit within 180 s

COLD_TAU_N = 100_000
COLD_MODULI = (5, 7, 9, 11, 13)
SWEEP_MODULI = (53, 81, 101, 105, 149, 211)
SWEEP_TAIL_EPS = "1e-5"
AUDIT_Q = 17
AUDIT_TAIL_EPS = "1e-7"
K_LIST = "0.5,1,2"
WIDE_MODULI = (
    # primes
    1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049, 1201, 1499,
    # odd prime powers 11^3, 37^2
    1331, 1369,
    # power of 2
    1024,
    # odd composites
    1001, 1005, 1007, 1015, 1023, 1025, 1105, 1155, 1225, 1485,
    # multiples of 4
    1100, 1200, 1452,
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a workload round."""

    key: str
    kind: str                 # which checker reads the output
    args: tuple[str, ...]
    moduli: tuple[int, ...] = ()
    cache: str | None = None  # "fresh": emptied before each call; "warm"
    out: str | None = None    # --out file name, read back for checking


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is stated in BENCHMARK.json and README.md."""

    name: str
    ops: tuple[Op, ...]
    # keys of the calls run once, untimed, to fill the cache: one per
    # distinct table the rounds need (same q, X and --tail-eps)
    warm_up: tuple[str, ...] = ()
    min_rounds: int = 2


def _qs(moduli) -> str:
    return ",".join(str(q) for q in moduli)


def _chars(moduli, key: str = "chars") -> Op:
    return Op(key, "chars", ("chars", "--q-list", _qs(moduli)),
              tuple(moduli))


def _audit_ops() -> tuple[Op, ...]:
    base = ("--q", str(AUDIT_Q), "--tail-eps", AUDIT_TAIL_EPS)
    return (
        _chars((AUDIT_Q,)),
        Op("audit-k0.5", "audit", ("audit", *base, "--k", "0.5"), (AUDIT_Q,),
           cache="warm"),
        Op("audit-k2", "audit", ("audit", *base, "--k", "2"), (AUDIT_Q,),
           cache="warm"),
        Op("verify", "verify", ("mollifier-verify", *base), (AUDIT_Q,),
           cache="warm"),
        Op("lvalue-X1", "lvalue", ("lvalue", *base, "--X", "1"), (AUDIT_Q,),
           cache="warm"),
        Op("lvalue-X0.5", "lvalue", ("lvalue", *base, "--X", "0.5"),
           (AUDIT_Q,), cache="warm"),
    )


WORKLOADS = {
    w.name: w for w in (
        Workload("cold-table", (
            _chars(COLD_MODULI),
            Op("tau", "tau", ("tau", "--n-max", str(COLD_TAU_N)),
               out="tau.tsv"),
            Op("sweep", "sweep", ("sweep", "--q-list", _qs(COLD_MODULI),
                                  "--k-list", K_LIST),
               COLD_MODULI, cache="fresh"),
        )),
        Workload("warm-sweep", (
            _chars(SWEEP_MODULI),
            Op("sweep", "sweep", ("sweep", "--q-list", _qs(SWEEP_MODULI),
                                  "--k-list", K_LIST, "--fit",
                                  "--tail-eps", SWEEP_TAIL_EPS),
               SWEEP_MODULI, cache="warm"),
        ), warm_up=("sweep",)),
        Workload("warm-audit", _audit_ops(),
                 warm_up=("lvalue-X1", "lvalue-X0.5")),
        # two calls a round, each over half of the moduli; four rounds,
        # because the host's slow spells move these calls the most; the
        # other workloads keep to two so that all runs fit the time budget
        Workload("chars-wide", (_chars(WIDE_MODULI[0::2], "chars-a"),
                                _chars(WIDE_MODULI[1::2], "chars-b")),
                 min_rounds=4),
    )
}


# ------------------------------------------------------------------ running

@dataclass
class Result:
    op: Op
    code: int
    wall: float
    rss_kb: int
    stdout: bytes
    stderr: bytes
    text: str = ""            # the report (stdout, or the --out file)
    ok: bool = False          # exit 0 and every check passed
    work: int = 0
    trace: dict | None = None


@dataclass
class Runner:
    workload: Workload
    deadline: float
    env: dict
    reference: dict = field(default_factory=dict)
    verified: dict = field(default_factory=dict)  # key -> checked work
    errors: list = field(default_factory=list)
    results: list = field(default_factory=list)

    @property
    def cache_dir(self) -> str:
        return os.path.join(WORK, self.workload.name, "cache")

    def argv(self, op: Op, trace_file: str | None) -> list[str]:
        if op.kind == "calibrate":
            return [sys.executable, CALIBRATE]
        args = list(op.args)
        if op.cache:
            args += ["--cache-dir", self.cache_dir]
        if op.out:
            args += ["--out", os.path.join(WORK, self.workload.name, op.out)]
        if trace_file is None:
            return [sys.executable, "-m", "twistmoments.cli", *args]
        return [sys.executable, os.path.join("perfbench", "trace_cli.py"),
                trace_file, "--", *args]

    def call(self, op: Op, traced: bool = False) -> Result:
        """Run one operation to its end and check what it emitted."""
        wdir = os.path.join(WORK, self.workload.name)
        if op.cache == "fresh":
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        out_path = os.path.join(wdir, op.out) if op.out else None
        if out_path and os.path.exists(out_path):
            os.unlink(out_path)
        trace_file = os.path.join(wdir, "op-trace.json") if traced else None
        before = self._listing() if op.cache else set()
        res = self._spawn(op, self.argv(op, trace_file), wdir)
        if out_path and res.code == 0:
            with open(out_path) as fh:
                res.text = fh.read()
        else:
            res.text = res.stdout.decode()
        self._check(res)
        if trace_file is not None:
            with open(trace_file) as fh:
                res.trace = json.load(fh)
            added = (self._listing() - before) if op.cache else set()
            res.trace["cache_added"] = len(added)
            res.trace["output_bytes"] = len(res.text.encode())
        self.results.append(res)
        return res

    def _listing(self) -> set[str]:
        os.makedirs(self.cache_dir, exist_ok=True)
        return set(os.listdir(self.cache_dir))

    def _spawn(self, op: Op, argv: list[str], wdir: str) -> Result:
        out_f = os.path.join(wdir, "stdout")
        err_f = os.path.join(wdir, "stderr")
        with open(out_f, "wb") as out, open(err_f, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    env=self.env)
            left = self.deadline - time.monotonic()
            timer = threading.Timer(max(left, 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # interrupted or terminated: leave no child running
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_f, "rb") as fh:
            stdout = fh.read()
        with open(err_f, "rb") as fh:
            stderr = fh.read()
        if proc.returncode == -signal.SIGKILL:
            raise TimeoutError(f"{op.key} killed at the run deadline")
        return Result(op, proc.returncode, wall, usage.ru_maxrss, stdout,
                      stderr)

    def _check(self, res: Result) -> None:
        op = res.op
        try:
            if res.code != 0:
                checks.check_failure(res.code, res.stdout, res.stderr)
                return
            ref = self.reference.setdefault(op.key, res.text)
            if ref != res.text:
                raise checks.CheckError(
                    f"{op.key}: output differs from the first call's")
            # the same bytes as an output that passed pass again
            if op.key not in self.verified:
                self.verified[op.key] = _CHECKERS[op.kind](res.text, op)
            res.work = self.verified[op.key]
            res.ok = True
        except checks.CheckError as exc:
            self.errors.append(f"{op.key}: {exc}")

    def round(self, ops: list[Op], traced: bool = False,
              refs: list[Result] | None = None) -> list[Result]:
        """One call of each op; with `refs`, a calibration job also runs
        before the first op and before the middle one, into `refs`."""
        got = []
        for i, op in enumerate(ops):
            if refs is not None and i in (0, len(ops) // 2):
                refs.append(self.call(CALIBRATE_OP))
            got.append(self.call(op, traced))
        by_key = {r.op.key: r for r in got}
        a, b = by_key.get("lvalue-X1"), by_key.get("lvalue-X0.5")
        if a is not None and b is not None and a.ok and b.ok:
            try:
                checks.check_balance(a.text, b.text)
            except checks.CheckError as exc:
                a.ok = b.ok = False
                self.errors.append(f"balance: {exc}")
        return got


_CHECKERS = {
    "tau": lambda text, op: checks.check_tau(text, COLD_TAU_N),
    "chars": lambda text, op: checks.check_chars(text, list(op.moduli)),
    "sweep": lambda text, op: checks.check_sweep(
        text, list(op.moduli), [0.5, 1.0, 2.0], "--fit" in op.args),
    "lvalue": lambda text, op: checks.check_lvalue(text, list(op.moduli)),
    "audit": lambda text, op: checks.check_audit(text),
    "verify": lambda text, op: checks.check_verify(text),
    "weights": lambda text, op: checks.check_weights(text),
    "calibrate": lambda text, op: checks.check_calibrate(text),
}

SETUP_OP = Op("weights", "weights", ("weights",))
CALIBRATE_OP = Op("calibrate", "calibrate", ())


# ------------------------------------------------------------------ metrics

def _round_wall(rounds: list[list[Result]]) -> float:
    """Wall time of a typical round: the sum, over its operations, of each
    operation's median wall time across the rounds.  Other tenants of a
    shared machine slow single calls by 20-50 %; a median over the rounds
    discards such a call where a total would keep it."""
    walls: dict[str, list[float]] = {}
    for rnd in rounds:
        for r in rnd:
            walls.setdefault(r.op.key, []).append(r.wall)
    return sum(statistics.median(w) for w in walls.values())


def _ok_rate(rounds: list[list[Result]]) -> float:
    """Verified operations per minute of a typical round."""
    ok_per_round = sum(r.ok for rnd in rounds for r in rnd) / len(rounds)
    return 60.0 * ok_per_round / _round_wall(rounds)


def _norm_ok_rate(rounds: list[list[Result]], refs: list[Result]) -> float:
    """_ok_rate on a host of nominal speed.  The shared host's speed drifts
    by 20-50 % over minutes, for tens of seconds at a time, so one run can
    fall wholly in a slow spell; the calibration jobs inside each round are
    slowed by the same spells, and scaling by its median wall time takes
    most of that drift out while leaving every change to the program in."""
    return (_ok_rate(rounds) * statistics.median(r.wall for r in refs)
            / REF_NOMINAL_S)


def kind_rates(results: list[Result]) -> dict[str, float]:
    """Verified work per second (or minute) of each operation kind's wall
    time; 0 where that kind only failed."""
    def rate(kinds, work):
        sel = [r for r in results if r.op.kind in kinds]
        wall = sum(r.wall for r in sel)
        return sum(work(r) for r in sel if r.ok) / wall if wall else 0.0
    return {
        "table_terms_per_s": rate(("tau",), lambda r: r.work),
        "sweep_chars_per_s": rate(("sweep",), lambda r: r.work),
        "audit_ops_per_min": rate(("audit", "verify", "lvalue"),
                                  lambda r: 60.0),
        "char_rows_per_s": rate(("chars",), lambda r: r.work),
    }


# Layer self times printed with every traced run and written to its trace
# file.  Those that every workload reaches are also listed under per_layer
# in BENCHMARK.json, with the counters; the rest read 0.0 on some workload
# on every run while the tau fault stands, so they stay out of the result.
TRACE_TIMES = ("cli.import", "cli.run", "weights.grid", "weights.quad",
               "weights.eval", "characters.group", "characters.conductor",
               "characters.primitive", "characters.gauss", "hecke.tau",
               "hecke.build", "lvalues.family", "lvalues.audit",
               "sums.block_sum", "mollifier.npoly", "mollifier.coeffs",
               "moments.holder", "moments.pointwise", "moments.diagonal",
               "moments.moment", "moments.fit", "arith.sieve")
# counters recorded as "<span>_calls" that BENCHMARK.json names otherwise
_RENAMED = {"hecke.build_calls": "hecke.table_builds",
            "weights.grid_calls": "weights.grids",
            "lvalues.audit_calls": "lvalues.audits"}


def layer_figures(results: list[Result]) -> dict[str, float]:
    """Self times (s) and counts summed over the traced processes given."""
    out: dict[str, float] = {}
    builds: dict[str, list[int]] = {"characters.group": [0, 0],
                                    "lvalues.family": [0, 0]}
    for res in results:
        tr = res.trace
        spans = tr["spans"]
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent is not None:
                child[parent] += t1 - t0
        for (name, t0, t1, _), inner in zip(spans, child):
            out[name + "_s"] = out.get(name + "_s", 0.0) + (t1 - t0 - inner)
        for key, val in tr["counts"].items():
            key = _RENAMED.get(key, key)
            if key == "mollifier.support_size":
                out[key] = max(out.get(key, 0), val)
            else:
                out[key] = out.get(key, 0) + val
        for name, pair in builds.items():
            keys = [json.dumps(k) for k in tr["keys"].get(name, [])]
            pair[0] += len(keys)
            pair[1] += len(set(keys))
        if res.op.cache:
            # a table-backed call that wrote a cache file missed; one that
            # succeeded without writing one was served from the cache
            added = tr["cache_added"]
            out["cli.cache_misses"] = out.get("cli.cache_misses", 0) + added
            if res.ok and not added:
                out["cli.cache_hits"] = out.get("cli.cache_hits", 0) + 1
        out["cli.output_bytes"] = (out.get("cli.output_bytes", 0)
                                   + tr["output_bytes"])
    for name, (calls, distinct) in builds.items():
        ratio_key = ("characters.groups_per_modulus"
                     if name == "characters.group"
                     else "lvalues.families_per_modulus")
        out[ratio_key] = calls / distinct if distinct else 0.0
    return out


def per_layer(setup: list[Result], rounds: list[list[Result]]) -> dict:
    """Median set-up process plus median round, for every layer figure."""
    figs = [layer_figures([r]) for r in setup]
    per_round = [layer_figures(rnd) for rnd in rounds]
    names = set().union(*figs, *per_round)
    names |= {n + "_s" for n in TRACE_TIMES}
    names |= {m["name"] for m in _per_layer_spec()}
    return {n: statistics.median(f.get(n, 0.0) for f in figs)
            + statistics.median(f.get(n, 0.0) for f in per_round)
            for n in sorted(names)}


# ---------------------------------------------------------------- the run

def _source_ok() -> bool:
    return os.path.isfile(os.path.join("src", "twistmoments", "cli.py"))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    start = time.monotonic()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src")] + ([env["PYTHONPATH"]]
                                    if env.get("PYTHONPATH") else []))
    runner = Runner(wl, start + DEADLINE_S, env)
    wdir = os.path.join(WORK, name)
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(wdir)

    # the seed orders each --q-list (fixed for the run, so repeated calls
    # must give identical bytes) and each round; it never changes the set
    # of moduli, sizes or flags, so every seed does the same work
    ops = []
    for op in wl.ops:
        if op.kind == "chars":
            qs = list(op.moduli)
            rng.shuffle(qs)
            op = Op(op.key, op.kind, ("chars", "--q-list", _qs(qs)),
                    op.moduli)
        ops.append(op)

    def shuffled_ops() -> list[Op]:
        rng.shuffle(ops)
        return list(ops)

    setup = [runner.call(SETUP_OP, traced=trace) for _ in range(SETUP_RUNS)]
    runner.round([op for op in ops if op.key in wl.warm_up])
    # a traced run interleaves untraced rounds, so the tracing overhead is
    # measured against rounds taken under the same machine conditions
    t0 = time.monotonic()
    rounds, untraced, refs = [], [], []
    while (len(rounds) < wl.min_rounds
           or time.monotonic() - t0 < seconds):
        if trace:
            untraced.append(runner.round(shuffled_ops()))
        rounds.append(runner.round(shuffled_ops(), traced=trace,
                                   refs=None if trace else refs))
    timed = [r for rnd in rounds for r in rnd]
    attempted = len(timed)
    failed = sum(1 for r in timed if r.code != 0)
    correct = not runner.errors

    # the untimed warm-up is preparation, so its memory is not reported
    ok_all = [r for r in setup + timed if r.code == 0]
    summary = {
        "workload": name, "seed": seed, "rounds": len(rounds),
        "round_wall_s": [round(sum(r.wall for r in rnd), 4)
                         for rnd in rounds],
        "calibrate_s": [round(r.wall, 4) for r in refs],
        **{k: round(v, 4) for k, v in kind_rates(timed).items()},
    }
    if trace:
        layers = per_layer(setup, rounds)
        summary["trace_overhead_pct"] = round(
            100.0 * (_round_wall(rounds) / _round_wall(untraced) - 1), 2)
        summary["layers"] = {k: round(v, 6) for k, v in layers.items()}
        path = os.path.join(WORK, f"trace-{name}-{seed}.json")
        with open(path, "w") as fh:
            json.dump({"summary": summary, "ops": [
                {"key": r.op.key, "code": r.code, "wall": r.wall,
                 **r.trace} for r in runner.results if r.trace]}, fh)
        summary["trace_file"] = path
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in _per_layer_spec()}
    else:
        summary["ok_ops_per_min"] = round(_ok_rate(rounds), 4)
        summary["op_wall_s"] = {}
        for r in timed:
            summary["op_wall_s"].setdefault(r.op.key, []).append(
                round(r.wall, 4))
        metrics = {
            "setup_s": {"value": statistics.median(r.wall for r in setup),
                        "unit": "s"},
            "norm_ok_ops_per_min": {"value": _norm_ok_rate(rounds, refs),
                                    "unit": "ops/min"},
            "peak_rss_mb": {"value": max(r.rss_kb for r in ok_all) / 1024,
                            "unit": "MB"},
        }
    for err in runner.errors[:5]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({"summary": summary}))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _per_layer_spec() -> list[dict]:
    with open("BENCHMARK.json") as fh:
        return json.load(fh)["per_layer"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so a running CLI child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not _source_ok():
        print("perfbench: run from the root of a twistmoments checkout "
              "(src/twistmoments/cli.py not found)", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace))
        except TimeoutError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 3
        if args.workload == "all":
            print(json.dumps({"workload": name, **results[name]}))
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
