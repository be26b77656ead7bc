"""One benchmark child: set up a plan through the CLI's public path, run it.

    child.py ROOT INI OUTDIR SEEDS [--setup-only] [--spans PATH]

SEEDS is a comma-separated list that replaces the plan's seeds; OUTDIR
replaces its output directory. The plan runs with `run_plan(plan, jobs=1)`.
The last stdout line is one JSON object:

  ready   CLOCK_MONOTONIC reading once the plan is validated (the parent
          subtracts its own reading taken just before the spawn)
  plan_s  wall seconds of run_plan, entry to aggregate.csv written
  exit    run_plan's exit code
  rss_mb  this process's peak resident set
  env     interpreter, numpy, scipy and OpenBLAS versions and BLAS threads

With --spans, the layer functions are wrapped (tracing.py) for the run and
the spans are written to PATH afterwards. Only run.py starts this script.
"""
import time
import sys
import os


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _blas() -> dict:
    """OpenBLAS build string and thread count, read from the loaded library."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
        lib = ctypes.CDLL(libs[0])
        # the symbol names of the scipy-openblas64 build that numpy wheels ship
        threads, config = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_get_config64_
        threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
        return {"openblas": config().decode(), "blas_threads": threads()}
    except (OSError, IndexError, AttributeError):
        pass
    return {"openblas": None, "blas_threads": None}


def _env() -> dict:
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, **_blas()}


def main(argv) -> int:
    root, ini, outdir, seeds = argv[:4]
    flags = argv[4:]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import dataclasses
    import json
    import resource

    from augbias import cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"augbias imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    plan, errors = cli.validate_config(ini)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 2
    plan = dataclasses.replace(plan, seeds=tuple(int(s) for s in seeds.split(",")),
                               outdir=outdir)
    result = {"ready": _clock()}
    if "--setup-only" in flags:
        print(json.dumps(result))
        return 0

    tracer = None
    if "--spans" in flags:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    t0 = _clock()
    _, code = cli.run_plan(plan, jobs=1)
    result["plan_s"] = _clock() - t0
    if tracer is not None:
        tracer.uninstall()
        tracer.write(flags[flags.index("--spans") + 1])
    result["exit"] = code
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = _env()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
