"""consensus-lab benchmark.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S]    # every workload, one row each
    python3 bench/run.py --self-test                 # tiny sizes, every metric name

One workload run generates its seeded inputs and the workload's fixed op
list, then repeats the list with tracing off, in a fixed number of passes
that together last about ``--seconds`` (see :data:`PASS_S`).
Each op writes its output to a file.  Pass 0's outputs are checked against
independent references once the timed passes end; every later pass must
print the same bytes.  With ``--trace 1`` the list runs once more with
spans around the package's public functions (see ``tracing.py``) and the
run reports per-layer numbers instead of the end-to-end ones.  Every op
calls ``consensus_lab.cli.main`` or a public library function in this
process.  The metric names and units come from ``BENCHMARK.json``.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A detail file with per-op
sha256 digests, model statistics, the environment, wall times and every
per-layer number is written under ``.bench_work/``.

Op times in the result line are in probes: an op's wall time divided by
the median wall time, over its pass, of a fixed pure-Python loop
(:func:`probe`) that runs just before each op.  On a shared 2-vCPU virtual
machine the host's speed drifts by up to a quarter over tens of seconds, so
wall seconds spread across runs by about that much; the ratio does not.
Wall-clock figures (``wall_s``, ``op_p50_ms``, ``op_tail_ms``) are in the
detail file and the summary table.

Deferred: a 10^4-signal family.  The dense code at this commit would need
an 800 MB interaction matrix and 10^8 CSV cells per ``build``; it belongs
in a later workload once a sparse path exists, with a new baseline.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")
sys.path[:0] = [HERE, SRC]

import numpy as np  # noqa: E402

import tracing as tr  # noqa: E402
import workloads as wls  # noqa: E402

SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: End-to-end numbers every run computes besides the ones BENCHMARK.json
#: lists, with their units; the summary table prints them all.
EXTRA_END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "failed_ratio": "ratio",
    "market_runs_per_s": "1/s",
}

#: Fresh-interpreter set-up samples per run, half taken before the timed
#: passes and half after them, so their median spans the run's window.
SETUP_SAMPLES = 6

#: Fewest measured passes; fixes the tail percentile for each workload
#: (p75, p88 and p79 on market_long, cis_dense and sparse_reducible).  With
#: three passes cis_dense's tail was p84, the edge between its slowest op
#: kind (3 of 21 ops) and the next, and it jumped between the two.
MIN_PASSES = 4

#: Nominal length [s] of one pass of any workload's op list on a shared
#: 2-vCPU x86-64 host, where passes took 2.9-6.1 s (median 4.3-4.8 s).
#: The number of passes follows from ``--seconds`` and this constant, not
#: from the clock, so a seed always runs the same ops: ``attempted`` and
#: ``failed`` repeat exactly across runs and hosts.
PASS_S = 5.0


def passes(seconds: float) -> int:
    """Measured passes of a run of ``seconds``."""
    return max(MIN_PASSES, round(seconds / PASS_S))


def _fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def measure_setup(n: int) -> list[float]:
    """Wall time of fresh interpreters that import ``consensus_lab.cli``."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import consensus_lab.cli"
    times = []
    for _ in range(n):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(perf_counter() - t0)
    return times


def environment(threads_env: str | None) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                threads[os.path.basename(path)] = int(fn())
                break
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("version"),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "CONSENSUS_LAB_THREADS": threads_env,
    }


def _rel(path: str) -> str:
    return os.path.relpath(path, ROOT) if os.path.isabs(path) else path


def _corrupt(text: str) -> str:
    """Bump the last digit of the first full-precision number."""
    return re.sub(r"(\d\.\d{10,})(\d)",
                  lambda m: m.group(1) + str((int(m.group(2)) + 1) % 10), text, count=1)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def probe() -> float:
    """Wall time [s] of a fixed pure-Python loop, the kind of work most ops
    do.

    Process CPU time drifts with the host's speed as much as wall time
    does, so the drift is not time stolen from this process; dividing by
    the median probe of an op's pass cancels most of it.  The probe has
    no BLAS call: with two BLAS threads on a shared 2-vCPU host a 200x200
    solve varies several-fold from call to call, which made the ratio
    noisier than the raw time."""
    t0 = perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return perf_counter() - t0


def _batch_sha256(batch) -> str | None:
    if batch is None:
        return None
    h = hashlib.sha256()
    for arr in (batch.durations, batch.class_counts, batch.class_prices):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class Runner:
    """Runs ops in this process, times them and checks their output."""

    def __init__(self):
        from consensus_lab import cli, io as sio, market, tyranny

        self.cli, self.sio, self.market, self.tyranny = cli, sio, market, tyranny
        self.tracer = None
        self._loaded: dict[str, tuple] = {}

    def _load(self, model):
        """Scenario and model for the library call of a market op; loaded
        outside the timed region, as a library user holds them."""
        if model.path not in self._loaded:
            scenario = self.sio.load_scenario(model.path)
            spec = scenario
            if isinstance(scenario, self.tyranny.CISSpec):
                spec = self.tyranny.build_pi_from_cis(scenario)
            self._loaded[model.path] = (scenario, spec)
        return self._loaded[model.path]

    def _schedule(self, op):
        """Printed game-solve actions at the market op's beta, from the
        list's own game-solve op or an untimed CLI call."""
        key = ("actions", op.beta)
        if key not in op.model.outputs:
            out = io.StringIO()
            argv = ["game-solve", op.model.path, "--beta", str(op.beta)]
            if self.cli.main(argv, out=out) != 0:
                raise wls.CheckError("reference game-solve failed")
            wls.check_game(wls.Op("game-solve", argv, op.model), out.getvalue())
        return op.model.outputs[key]

    def run(self, op, tag, path) -> dict:
        """Run one op with its output going to the file ``path``.  The timed
        region covers the CLI call and, for a market op, the
        ``simulate_batch`` call that follows it; :func:`probe` runs just
        before."""
        if op.batch is not None:
            scenario, spec = self._load(op.model)
        gc.collect()
        probe_ms = probe() * 1e3
        err = io.StringIO()
        code, error, batch = None, None, None
        if self.tracer is not None:
            self.tracer.op = tag
        with open(path, "w", encoding="utf-8", newline="") as out:
            t0 = perf_counter()
            t_cli = None
            try:
                with redirect_stderr(err):
                    code = self.cli.main(op.argv, out=out)
                t_cli = perf_counter()
                if op.batch is not None and code == 0:
                    batch = self.market.simulate_batch(
                        spec, op.batch["beta"], op.batch["n_runs"], op.batch["seed"],
                        wls.batch_draw(spec, scenario), initial_owner="centrality")
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an op that raises is a failed op, not a crash
                error = f"{type(exc).__name__}: {exc}"
            t_end = perf_counter()
        return {
            "op": tag, "kind": op.kind, "ms": (t_end - t0) * 1e3,
            "cli_ms": ((t_cli or t_end) - t0) * 1e3, "probe_ms": probe_ms,
            "exit": code, "error": error or (err.getvalue().strip()[:300] or None),
            "sha256": _sha256(path), "batch_sha256": _batch_sha256(batch),
            "path": path, "batch": batch,
            "failed": code != 0 or error is not None, "wrong": False, "check": None,
        }

    def check(self, op, rec):
        """Check pass 0's output of an op against its references."""
        with open(rec.pop("path"), encoding="utf-8", newline="") as fh:
            text = fh.read()
        batch = rec.pop("batch")
        if rec["failed"]:
            return
        try:
            if op.kind == "simulate-market":
                rec["trades"] = wls.check_market(op, text, self._schedule(op), batch)
            else:
                wls.CHECKS[op.kind](op, text)
            rec["check"] = "ok"
        except Exception as exc:  # malformed output fails its check too
            rec["check"] = f"{type(exc).__name__}: {exc}"
            rec["failed"] = rec["wrong"] = True


def _same(rec, ref):
    """A repeat of a checked op: same bytes as the reference run, so the
    same verdict; different bytes break determinism."""
    del rec["path"], rec["batch"]
    if not rec["failed"]:
        if (rec["sha256"], rec["batch_sha256"]) != (ref["sha256"], ref["batch_sha256"]):
            rec["check"] = "output differs from the checked run"
            rec["failed"] = rec["wrong"] = True
        else:
            rec["check"] = ref["check"]
            rec["failed"], rec["wrong"] = ref["failed"], ref["wrong"]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` ops beyond it."""
    return int(np.floor(100 * (1 - 10 / n))) if n > 10 else 50


def run_workload(args) -> int:
    if args.workload not in wls.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(wls.WORKLOADS)}")
    threads_env = os.environ.pop("CONSENSUS_LAB_THREADS", None)
    setup = measure_setup(1 if args.tiny else SETUP_SAMPLES // 2)
    wl = wls.WORKLOADS[args.workload](args.tiny)
    run_dir = os.path.join(WORKDIR, f"{wl.name}-s{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        return _measure(args, wl, run_dir, setup, threads_env)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _times(samples, q) -> tuple[float, float, float]:
    """Median pass total, median op and tail percentile ``q`` op of per-op
    samples ``samples[op][pass]``, in the samples' unit."""
    flat = [x for op in samples for x in op]
    passes = [sum(pass_) for pass_ in zip(*samples)]
    return (statistics.median(passes), statistics.median(flat),
            float(np.percentile(flat, q)))


def _measure(args, wl, run_dir, setup, threads_env) -> int:
    env = environment(threads_env)
    ops = wl.op_list(args.seed, run_dir)
    runner = Runner()

    # warm-up: the op list of the tiny variant loads every code path once
    warm_dir = os.path.join(run_dir, "warm-up")
    os.makedirs(warm_dir)
    for i, op in enumerate(type(wl)(True).op_list(args.seed, warm_dir)):
        runner.run(op, f"warm-up.{i}", os.path.join(run_dir, "repeat.txt"))

    # Pass 0's outputs are kept in files and checked once the timed passes
    # end, so the checks neither share the window nor set peak_rss_mb; every
    # later pass must print the same bytes.
    records, wall, probes = [], [[] for _ in ops], []
    start = perf_counter()
    n_passes = passes(args.seconds)
    for p in range(n_passes):
        for i, op in enumerate(ops):
            path = os.path.join(run_dir, f"out-{i}.txt" if p == 0 else "repeat.txt")
            rec = runner.run(op, f"{p}.{i}", path)
            if p == 0 and args.corrupt and i == 0:
                with open(path, "r+", encoding="utf-8", newline="") as fh:
                    text = _corrupt(fh.read())
                    fh.seek(0)
                    fh.write(text)
                    fh.truncate()
                rec["sha256"] = _sha256(path)
            records.append(rec)
            wall[i].append(rec["ms"])
        probes.append(statistics.median(r["probe_ms"] for r in records[-len(ops):]))
    measured_s = perf_counter() - start
    rel = [[ms / pr for ms, pr in zip(op_ms, probes)] for op_ms in wall]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += measure_setup(1 if args.tiny else SETUP_SAMPLES // 2)

    ref = records[:len(ops)]
    for op, rec in zip(ops, ref):
        runner.check(op, rec)
    for j, rec in enumerate(records[len(ops):], len(ops)):
        _same(rec, ref[j % len(ops)])

    q = tail_percentile(MIN_PASSES * len(ops))
    market = [i for i, op in enumerate(ops) if op.batch is not None]
    failed = sum(r["failed"] for r in records)
    e2e = {"setup_s": statistics.median(setup)}
    e2e["wall_probes"], e2e["op_p50_probes"], e2e["op_tail_probes"] = _times(rel, q)
    e2e["wall_s"], e2e["op_p50_ms"], e2e["op_tail_ms"] = _times(wall, q)
    e2e["wall_s"] /= 1e3
    e2e["failed_ratio"] = failed / len(records)
    e2e["peak_rss_mb"] = peak_rss_mb
    if market:
        runs = sum(2 * ops[i].batch["n_runs"] for i in market if not ref[i]["failed"])
        e2e["market_runs_per_s"] = runs / _times([wall[i] for i in market], q)[0] * 1e3
    lat = [x for op in rel for x in op]
    counts = {"setup_s": len(setup), "passes": n_passes, "ops": len(records),
              "tail_percentile": q,
              "ops_beyond_tail": sum(x > e2e["op_tail_probes"] for x in lat),
              "pass_wall_s": [sum(pass_ms) / 1e3 for pass_ms in zip(*wall)],
              "pass_probes": [sum(pass_) for pass_ in zip(*rel)], "pass_probe_ms": probes,
              "market_ops": len(market) * n_passes}
    by_cmd: dict[str, list[float]] = {}
    for r in records:
        by_cmd.setdefault(r["kind"], []).append(r["cli_ms"])
    layers = {f"cli.{k}.p50_ms": statistics.median(v) for k, v in by_cmd.items()}

    spans, traced = [], []
    if args.trace:
        tracer = tr.Tracer()
        runner.tracer = tracer
        tracer.install()
        try:
            traced = [runner.run(op, f"trace.{i}", os.path.join(run_dir, "repeat.txt"))
                      for i, op in enumerate(ops)]
        finally:
            tracer.uninstall()
            runner.tracer = None
        for rec, r0 in zip(traced, ref):
            _same(rec, r0)
        red = tracer.per_layer()
        names = set(red["calls"]) | {f"{l}.{f}" for l, fs in tr.TRACED.items() for f in fs}
        for name in sorted(names):
            layers[f"{name}.calls"] = red["calls"].get(name, 0)
            layers[f"{name}.self_s"] = red["self_s"].get(name, 0.0)
        for layer in tr.LAYERS:
            layers[f"{layer}.self_s"] = red["layer_self_s"].get(layer, 0.0)
        # the traced pass against the median untraced one, rescaled to the
        # traced pass's probe; within the host's drift, so it can read
        # below zero
        layers["trace.wall_s"] = sum(r["ms"] for r in traced) / 1e3
        traced_probe_ms = statistics.median(r["probe_ms"] for r in traced)
        layers["trace.overhead_s"] = (layers["trace.wall_s"]
                                      - e2e["wall_probes"] * traced_probe_ms / 1e3)
        spans = tracer.spans

    correct = not any(r["wrong"] for r in records + traced)
    spec = load_spec()
    if args.trace:
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    def rel_path(path):
        return _rel(path.replace(run_dir, "<inputs>"))

    for r, op, ms, op_rel in zip(ref, ops, wall, rel):
        r.update(argv=[rel_path(a) for a in op.argv], samples_ms=ms, samples_probes=op_rel)
    detail = {
        "workload": wl.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == wl.name),
        "params": wl.params, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "measured_s": measured_s,
        "environment": env, "setup_samples_s": setup,
        "counts": counts, "end_to_end": e2e, "per_layer": layers,
        "models": {rel_path(op.model.path): op.model.stats for op in ops},
        "ops": ref, "failures": [r for r in records[len(ops):] + traced if r["failed"]][:20],
    }
    os.makedirs(os.path.join(WORKDIR, "results"), exist_ok=True)
    stem = os.path.join(WORKDIR, "results", f"{wl.name}-s{args.seed}-t{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)
    if spans:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)

    print(f"{wl.name}: {len(ops)} ops x {n_passes} passes, {failed} failed, "
          f"tail p{q}; detail in {_rel(stem)}.json")
    for r in ref:
        if r["failed"]:
            print(f"  failed {r['op']} {r['kind']}: {r['check'] or r['error']}")
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


def _child(workload, seed, seconds, trace, extra=()) -> tuple[dict, dict]:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(WORKDIR, "results", f"{workload}-s{seed}-t{trace}.json"),
              encoding="utf-8") as fh:
        return result, json.load(fh)


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def run_all(args) -> int:
    """Every workload in its own process, traced; one table row each, then
    the per-layer numbers: BENCHMARK.json's list, and every other self time
    or subcommand median that is not zero on some workload."""
    spec = load_spec()
    rows = {}
    for name in wls.WORKLOADS:
        rows[name] = _child(name, args.seed, args.seconds, 1)
    cols = [(m["name"], m["unit"]) for m in spec["end_to_end"]] + list(EXTRA_END_TO_END.items())
    print(f"{'workload':18}" + "".join(f"{f'{n} [{u}]':>24}" for n, u in cols) + "  samples")
    for name, (result, d) in rows.items():
        c = d["counts"]
        print(f"{name:18}"
              + "".join(f"{d['end_to_end'][n]:>24.6g}" if n in d["end_to_end"] else f"{'n/a':>24}"
                        for n, _ in cols)
              + f"  setup n={c['setup_s']}, passes={c['passes']}, ops={c['ops']}, "
              f"tail=p{c['tail_percentile']} ({c['ops_beyond_tail']} beyond), "
              f"market ops={c['market_ops']}, correct={result['correct']}")
    print()
    listed = [m["name"] for m in spec["per_layer"]]
    others = sorted({k for _, d in rows.values() for k, v in d["per_layer"].items()
                     if k.endswith(("self_s", "p50_ms")) and v and k not in listed})
    print(f"{'per-layer (traced pass)':52}" + "".join(f"{n:>20}" for n in rows))
    for metric in listed + others:
        print(f"{metric:52}" + "".join(f"{d['per_layer'].get(metric, 0):>20.6g}"
                                       for _, d in rows.values()))
    return 0 if all(r["correct"] for r, _ in rows.values()) else 1


def self_test() -> int:
    """Tiny runs of every workload, printing every metric; then shows that
    a corrupted op output counts as failed."""
    ok = True
    for name in wls.WORKLOADS:
        for trace in (0, 1):
            result, _ = _child(name, 1, 0, trace, ["--tiny"])
            good = result["correct"] and result["attempted"] >= 1
            ok &= good
            print(f"{name} trace={trace}: {'ok' if good else 'INCORRECT'}; "
                  f"{result['attempted']} ops, {result['failed']} failed")
            for k, v in result["metrics"].items():
                print(f"  {k} = {v['value']} {v['unit']}")
    result, detail = _child("market_long", 1, 0, 0, ["--tiny", "--corrupt"])
    first = detail["ops"][0]
    caught = result["failed"] >= 1 and not result["correct"] and first["failed"]
    ok &= caught
    print(f"corrupted first op output: {'counted as failed' if caught else 'NOT caught'}"
          f" ({first['check']})")
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs (self-test)")
    ap.add_argument("--corrupt", action="store_true",
                    help="corrupt the first op's output before its check (self-test)")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "consensus_lab")):
        _fail(f"package source not found under {SRC}")
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            return run_all(args)
        return run_workload(args)
    except (RuntimeError, subprocess.SubprocessError):
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
