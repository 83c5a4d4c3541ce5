"""Time one set-up in a fresh interpreter and print it as JSON.

Usage: python3 setup_probe.py <src-dir> <workload-file>

Set-up is what a user pays before the first campaign: ``import repsq``,
loading the campaign config, building the testbed, computing its oracle
(the ground truth the accuracy rate is graded against) and building the
partition. ``run.py`` starts this script several times per run and
reports the fastest.
"""

import json
import sys
import time


def main() -> int:
    src, workload_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import repsq

    t1 = time.perf_counter()
    with open(workload_path, encoding="utf-8") as f:
        config = repsq.CampaignConfig.from_dict(json.load(f)["config"])
    t2 = time.perf_counter()
    bed = config.build_testbed()
    t3 = time.perf_counter()
    bed.oracle_r_star  # computes and caches the oracle
    t4 = time.perf_counter()
    alpha = repsq.compute_alpha(config.accuracy)
    repsq.build_partition(config.m_low, config.m_high, alpha, 0.0)
    t5 = time.perf_counter()
    print(json.dumps({
        "repsq_file": repsq.__file__,
        "import_s": t1 - t0,
        "config_s": t2 - t1,
        "testbed_s": t3 - t2,
        "oracle_s": t4 - t3,
        "partition_s": t5 - t4,
        "setup_s": t5 - t0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
