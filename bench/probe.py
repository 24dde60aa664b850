"""One set-up probe: a fresh interpreter imports macregion and makes one warm-up call.

Run by ``run.py`` as ``python probe.py <workload> <scratch dir>`` with
PYTHONPATH pointing at the checkout's ``src``.  It prints ``ready`` once the
warm-up call has returned; the parent times the interval from launch to that
line.
"""

import contextlib
import io
import sys
from pathlib import Path

workload, scratch = sys.argv[1], Path(sys.argv[2])

import macregion  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    if workload == "dense_sweep":
        macregion.gaussian_inner_region(macregion.GaussianMacParams(15.0, 50.0, 20.0, 60.0), 5, 9)
        macregion.binary_inner_region(macregion.BinaryMacParams(0.1, 0.4, 0.2), 5)
    else:
        from macregion import cli

        if workload == "figure_set":
            argv = ["figure", "fig2", "--out-dir", str(scratch)]
        else:
            argv = ["dm-eval", "--spec", str(scratch.parent / "warm_spec.json"),
                    "--out", str(scratch / "warm.json")]
        scratch.mkdir(parents=True, exist_ok=True)
        if cli.main(argv) != 0:
            sys.exit(1)

print("ready", flush=True)
