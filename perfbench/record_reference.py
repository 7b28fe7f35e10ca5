"""Record the reference report values that run.py checks seeded runs against.

    PYTHONPATH=src python3 perfbench/record_reference.py SEED...

Runs one round of every workload per seed and rewrites reference.json.  The
committed file was recorded at the commit that added the benchmark; record
again only on purpose, since it pins the library's numbers.
"""

import json
import os
import sys
import tempfile

from workloads import WORKLOADS, reference_view

HERE = os.path.dirname(os.path.abspath(__file__))


def main(seeds):
    table = {name: {} for name in WORKLOADS}
    os.makedirs(os.path.join(os.path.dirname(HERE), ".perfbench"), exist_ok=True)
    for name, setup in WORKLOADS.items():
        for seed in seeds:
            with tempfile.TemporaryDirectory(
                dir=os.path.join(os.path.dirname(HERE), ".perfbench")
            ) as workdir:
                reports = setup(seed, workdir)
                table[name][str(seed)] = [reference_view(r.run()) for r in reports]
            print(name, seed, flush=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump({"seeds": seeds, "workloads": table}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
