"""Fresh-process probes: set-up time and peak memory of one sweep.

Run as ``python3 child.py <src dir> <config.json> setup`` or
``python3 child.py <src dir> <config.json> sweep <out dir>``; prints one
JSON object. ``setup`` times what ``prepaid-ems run`` does before the
sweep: importing the package and parsing and validating the config.
``sweep`` then runs the sweep and emits its outputs, and reports the
process's peak resident memory and the bundle digest.
"""

import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    src, config_path, mode = argv[:3]
    start = time.perf_counter()
    sys.path.insert(0, src)
    from prepaid_ems import config as config_mod, experiment

    config = config_mod.from_file(config_path)
    setup_s = time.perf_counter() - start
    report = {"setup_s": setup_s}
    if mode == "sweep":
        from checks import bundle_sha256

        results = experiment.run_experiment(config)
        experiment.emit_outputs(results, argv[3])
        report["sha256"] = bundle_sha256(argv[3])
        # ru_maxrss is in KiB on Linux.
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
