#!/usr/bin/env python3
"""Print the perf ledger table: workload x end-to-end metric x PR.

Reads perf/PR-*/pairs-seed1.jsonl (one line per benchmark run, written by the
PR's alternating parent/change pairs) and prints, per PR, the medians of the
parent's and the change's runs as "parent -> change": host_* and setup_s
compare only inside one cell (one session on one host); a PR's parent is the
previous PR's change, so the distance between them is that host's drift.
Usage: python3 perf/table.py
"""
import glob
import json
import os
import re
import statistics
from collections import defaultdict

here = os.path.dirname(os.path.abspath(__file__))
cells = defaultdict(lambda: defaultdict(list))  # (workload, metric) -> (pr, side) -> values
prs = []
for path in sorted(glob.glob(os.path.join(here, "PR-*", "pairs-seed1.jsonl")),
                   key=lambda p: int(re.search(r"PR-(\d+)", p).group(1))):
    pr = re.search(r"PR-(\d+)", path).group(0)
    prs.append(pr)
    with open(path) as f:
        for line in f:
            run = json.loads(line)
            for metric, v in run["result"]["metrics"].items():
                cells[(run["workload"], metric)][(pr, run["side"])].append(v["value"])

print("| workload | metric | " + " | ".join(prs) + " |")
print("|---|---|" + "---|" * len(prs))
for (workload, metric), by_pr in cells.items():
    row = ["%.6g -> %.6g" % tuple(statistics.median(by_pr[(pr, side)]) for side in ("parent", "change"))
           for pr in prs]
    print("| %s | %s | %s |" % (workload, metric, " | ".join(row)))
