"""defectclean benchmark: one workload, one seed, one run of fixed length.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload grid --seed 0 --seconds 20 --trace 0

The run builds (or re-uses) the seeded 65-release twin, then starts one
child process per iteration (``child.py``), one at a time (a closed loop
with a single caller), for about ``--seconds`` and at least two rounds.  Every child loads the
twin with ``load_corpus``, runs the workload's body and writes its outputs;
the end-to-end metrics are medians over the children.  With ``--trace 1``
untraced and traced children alternate: the traced ones give the per-layer
metrics, and the difference of the two ``wall_s`` medians is the tracing
overhead.

Every child's outputs are checked, and their digests must agree with each
other and with earlier runs of the same code and seed (kept under
``perfbench/_work``).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

WORKLOADS = ("grid", "select", "corpus")

#: a run must end within this many seconds of starting
RUN_DEADLINE_S = 170.0

#: twins kept on disk (about 8 MB each); the oldest go first
TWINS_KEPT = 12

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    # the package's own worker knob, and one BLAS thread: one process, one core
    env["DEFECTCLEAN_WORKERS"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def code_key() -> str:
    """Digest of the package and benchmark sources."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode("utf-8") + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def prune_twins(cache: Path, keep: Path) -> None:
    twins = sorted(
        (p for p in cache.glob("twin-*") if p != keep),
        key=lambda p: p.stat().st_mtime,
        reverse=True,
    )
    for old in twins[TWINS_KEPT - 1:]:
        shutil.rmtree(old, ignore_errors=True)


def run_child(
    workload: str, twin_dir: Path, seed: int, traced: bool, check: bool, deadline: float
) -> dict:
    out = WORK / "out" / f"{workload}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--twin", str(twin_dir), "--out", str(out),
        "--seed", str(seed),
    ]
    if traced:
        cmd.append("--trace")
    if check:
        cmd.append("--check")
    t0 = time.monotonic()
    timeout = deadline - t0
    if timeout <= 0:
        fail("no time left for another iteration")
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        fail(f"{workload} iteration did not finish within {timeout:.0f} s")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{workload} iteration exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment_stamp(seed: int, twin_info: dict) -> dict:
    return {
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "workers": int(child_env()["DEFECTCLEAN_WORKERS"]),
        "twin_seed": seed,
        "twin_digest": twin_info["digest"],
    }


def check_digests(records: list[dict], store: Path, key: str) -> tuple[int, list[str]]:
    """Every child's digests must equal the first child's and those stored
    by an earlier run of the same code and seed."""
    reference = records[0]["digests"]
    failures = []
    attempted = 0
    for i, record in enumerate(records[1:], start=2):
        attempted += 1
        if record["digests"] != reference:
            failures.append(f"iteration {i} produced other outputs than iteration 1")
    stored = json.loads(store.read_text(encoding="utf-8")) if store.is_file() else None
    if stored is not None and stored["code_key"] == key:
        attempted += 1
        if stored["digests"] != reference:
            failures.append(f"outputs differ from an earlier run recorded in {store.name}")
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps({"code_key": key, "digests": reference}, indent=2))
    return attempted, failures


def main() -> None:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description="defectclean benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/defectclean/__init__.py", "tests/_reference_tables.py"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} not found under {ROOT}; run from a defectclean checkout")
    # This process stays small: Linux carries a parent's peak RSS into the
    # ru_maxrss of the children it starts, so the twin is built in a child.
    subprocess.run(  # byte-compile once, so no iteration pays for it
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
        check=True, stdout=subprocess.DEVNULL,
    )
    built = subprocess.run(
        [sys.executable, str(HERE / "twin.py"), "--seed", str(args.seed),
         "--root", str(ROOT), "--cache", str(WORK / "twins")],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=RUN_DEADLINE_S,
    )
    if built.returncode != 0:
        sys.stderr.write(built.stderr)
        fail("building the twin failed")
    twin_info = json.loads(built.stdout.strip().splitlines()[-1])
    twin_dir = Path(twin_info["corpus_dir"])
    prune_twins(WORK / "twins", twin_dir.parent)

    deadline = started + RUN_DEADLINE_S
    records: list[dict] = []
    rounds = 0
    measuring = time.monotonic()
    while True:
        round_started = time.monotonic()
        for traced in ((False, True) if args.trace else (False,)):
            # equal bytes give equal check results, so only the first child
            # checks its outputs; the digest comparison covers the rest
            records.append(run_child(
                args.workload, twin_dir, args.seed, traced, not records, deadline
            ))
        rounds += 1
        # time at least two rounds, so every median has two samples; then
        # stop before a round that would end past --seconds
        now = time.monotonic()
        if rounds >= 2 and now - measuring + (now - round_started) > args.seconds:
            break

    key = code_key()
    attempted = sum(r["checks_attempted"] for r in records)
    failures = [msg for r in records for msg in r["check_failures"]]
    failed = sum(r["checks_failed"] for r in records)
    digest_attempted, digest_failures = check_digests(
        records, WORK / "digests" / f"{args.workload}-seed{args.seed}.json", key
    )
    attempted += digest_attempted
    failed += len(digest_failures)
    failures += digest_failures

    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    if args.trace:
        layer_names = traced[0]["layers"].keys()
        metrics = {
            name: statistics.median(r["layers"][name] for r in traced) for name in layer_names
        }
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain)
        )
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "items_per_s": statistics.median(r["items"] / r["body_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END_UNITS

    stamp = environment_stamp(args.seed, twin_info)
    fidelity = {k: twin_info[k] for k in (
        "cases", "published_cases", "defective", "published_defective",
        "removed_by_clean", "published_removed", "removed_gap",
    )}
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "code_key": key, "environment": stamp, "twin": fidelity,
        "iterations": records, "metrics": metrics, "attempted": attempted,
        "failed": failed, "failures": failures[:20],
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )

    print(f"environment: {json.dumps(stamp, sort_keys=True)}")
    print(f"twin: {json.dumps(fidelity, sort_keys=True)}")
    print(f"iterations: {len(plain)} untraced, {len(traced)} traced")
    print("unscaled medians: " + ", ".join(
        f"{name} = {statistics.median(r['raw_' + name] for r in plain):.6g} s"
        for name in ("setup_s", "wall_s", "body_s")
    ) + f"; median slowdown {statistics.median(r['median_slowdown'] for r in plain):.3g}")
    for message in failures[:20]:
        print(f"check failed: {message}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.startswith("share.") or name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    main()
