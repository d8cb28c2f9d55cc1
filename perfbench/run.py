"""Benchmark entry point: one workload, one seed, in a fresh process.

Run from the repository root:

    python3 perfbench/run.py --workload long-window --seed 1 --seconds 20 --trace 0

It writes the workload's interaction file from the seed under
`perfbench/out/`, runs `perfbench/workload.py` on it in a child process
with BLAS pinned to one thread, and prints the workload's make-up, the
BLAS configuration, every metric with its unit, the operations attempted
and failed and each correctness check.  The last line of its output is
one JSON object: `correct`, `attempted`, `failed` and `metrics`, whose
names and units are those `BENCHMARK.json` lists.  A failed check makes
it exit with code 1 after that line.

`--trace 0` reports the end-to-end metrics.  `--trace 1` reports the
per-layer metrics instead, from a run that first trains once untraced
(the baseline of the tracing overhead) and then repeats everything
traced; no end-to-end number comes from a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEADLINE_S = 170  # the whole run, children included

sys.path.insert(0, str(HERE))
from corpus_gen import write_corpus  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

def run_child(args, data, spans, deadline):
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--data", str(data),
        "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every run
    # subprocess.run kills and reaps the child if the deadline passes
    proc = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    kind = "traced" if spans is not None else "plain"
    with open(OUT / f"{args.workload}-{args.seed}.{kind}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "seqfilt" / "__init__.py").is_file():
        print(f"error: no seqfilt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    data = OUT / f"{args.workload}-{args.seed}.txt"
    write_corpus(data, WORKLOADS[args.workload].corpus, args.seed)
    spans = OUT / f"{args.workload}-{args.seed}.spans.jsonl" if args.trace else None
    try:
        result = run_child(args, data, spans, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    shape = result["workload"]
    print(
        f"workload {args.workload} seed {args.seed}: {shape['users']} users, "
        f"{shape['items']} items, {shape['interactions']} interactions, "
        f"{shape['examples_per_epoch']} examples x {shape['epochs']} epochs"
    )
    blas = result["blas"]
    print(f"blas: {blas['library']}, {blas['threads']} thread(s), {blas['cpus']} cpu(s)")
    checks = result["checks"]
    for c in checks:
        print(f"check {c['name']}: {'ok' if c['ok'] else 'FAILED'} ({c['detail']})")
    ops = result["ops"]
    failed = sum(not c["ok"] for c in checks)
    attempted = sum(ops.values()) + len(checks)
    print("operations: " + ", ".join(f"{k} {v}" for k, v in ops.items())
          + f", checks {len(checks)}; attempted {attempted}, failed {failed}")
    ref = result["reference"]
    print(f"reference (not gated): batch-1 p99 {ref['predict1_ms_p99']:.4f} ms over "
          f"{ref['calls']['predict1']} calls; turns {ref['turns']}; calls {ref['calls']}; "
          f"epoch seconds {[round(s, 3) for s in ref['epoch_seconds']]}")

    if args.trace:
        values = result["per_layer"]
        for name in result["missing"]:
            print(f"trace: {name} is missing from the program; its spans read 0")
    else:
        values = result["metrics"]
    # names and units as BENCHMARK.json lists them
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    for k, m in metrics.items():
        print(f"{k}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
