"""Run one fourier-kv benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload decode_desk_wide --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. The lines above
it give the run's machine and geometry and a table of every metric with its
unit and direction. A report with the same figures, and with ``--trace 1`` the
spans, is written under ``.perfbench_out/``.
"""

import os

# BLAS threads are fixed before numpy is imported: one thread makes step
# times steady and matches the single-threaded Python loops around them
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _blas_info(np) -> dict:
    """OpenBLAS version from numpy's build config, and the thread count it really uses."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads,
            "threads_env": BLAS_THREADS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fourier_kv" / "__init__.py").is_file():
        print(f"no fourier_kv sources under {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import numpy as np

    import bench
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": platform.machine(),
        "processor": platform.processor(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(np),
        "geometry": {
            "layers": workload.layers, "kv_heads": workload.kv_heads,
            "query_heads_per_kv": workload.group, "head_dim": workload.head_dim,
            "init": workload.partition.init_len, "local": workload.partition.local_len,
            "period": workload.partition.period, "orders": workload.partition.orders,
            "prompt_len": workload.prompt_len, "prompts": workload.prompts,
            "steps_per_episode": workload.steps, "min_episodes": workload.episodes,
        },
    }
    print("meta " + json.dumps(meta, sort_keys=True))

    out = bench.run(workload, args.seed, args.seconds, bool(args.trace), ROOT)
    result, report = out["result"], out["report"]

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if out["tracer"] is not None:
        out["tracer"].write(out_dir / f"{stem}-spans.jsonl")
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result, "report": report}, fh, indent=1,
                  sort_keys=True)

    specs = bench.PER_LAYER if args.trace else bench.END_TO_END
    for line in bench.table_lines(result, specs):
        print(line)
    for name, value in report.get("layer_rows", {}).items():
        print(f"{name:40s} {value:>14.6g} ms")
    print(f"error_rate {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
