"""Record the reference outputs that run.py checks at the default seed.

    python3 perfbench/record_reference.py

Runs every operation of each workload's cycle once at the default seed,
in process, and writes ``reference.json``. The parallel workload's
reference comes from serial runs of its scenarios, since the program
promises bit-identical results for any worker count. Record only from a
program whose outputs are known to be right: the benchmark treats these
values as the truth.
"""

import contextlib
import io
import json
import shutil
import sys

import workloads as wl


def main():
    survrake = wl.import_survrake()
    import survrake.cli

    workdir = wl.ROOT / ".perfbench_runs" / "tmp-reference"
    reference = {"seed": wl.DEFAULT_SEED}
    try:
        for name in ("null_bootstrap", "gate_tables", "parallel"):
            workload = wl.WORKLOADS[name](name, wl.DEFAULT_SEED, workdir / name, {})
            ops = []
            for config in workload.generate(survrake):
                ops.append(wl.row_dicts(survrake.simulation.run_scenario(config)))
            reference[name] = {"ops": ops}

        fit = wl.FitCliWorkload("fit_cli", wl.DEFAULT_SEED, workdir / "fit_cli", {})
        fit.prepare(survrake)
        csv_path = fit.workdir / "fit_grrc.csv"
        outputs = []
        for k in range(wl.FIT_CYCLE + 1):
            args = fit.fit_args(k)
            if k == wl.FIT_CYCLE:  # the point estimate, without a bootstrap
                args[args.index("--bootstrap") + 1] = "0"
            with contextlib.redirect_stdout(io.StringIO()):
                if survrake.cli.main(args):
                    raise SystemExit("survrake fit failed")
            outputs.append(wl.read_fit_csv(csv_path))
        reference["fit_cli"] = {
            "point": [row[:3] for row in outputs.pop()],
            "ops": outputs,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=0)
        handle.write("\n")


if __name__ == "__main__":
    sys.exit(main())
