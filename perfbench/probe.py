"""Child processes the benchmark starts.

``probe.py setup <workload> <seed> <workdir>`` does a workload's set-up in a
fresh interpreter (import survrake, load the generated scenarios or the
dataset, one untimed warm-up operation) and prints ``ready``; the parent
times it from process start to that line.

``probe.py traced-fit <spans.json> <fit arguments...>`` runs ``survrake
fit`` with the span tracer installed and writes the spans, plus the time
``import survrake.cli`` took, to the given file.
"""

import json
import sys
import time


def main(argv):
    mode = argv[0]
    if mode == "setup":
        import workloads

        name, seed, workdir = argv[1], int(argv[2]), argv[3]
        survrake = workloads.import_survrake()
        workloads.WORKLOADS[name](name, seed, workdir, {}).setup(survrake)
        print("ready", flush=True)
        return 0
    if mode == "traced-fit":
        started = time.perf_counter()
        import workloads

        workloads.import_survrake()
        import survrake.cli

        import_s = time.perf_counter() - started
        import spans

        tracer = spans.Tracer()
        tracer.install()
        tracer.op = 0
        code = survrake.cli.main(argv[2:])
        tracer.uninstall()
        with open(argv[1], "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "spans": tracer.spans}, handle)
        return code
    raise SystemExit(f"unknown probe mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
