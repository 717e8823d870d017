"""Golden outputs of the fixed reference seed.

Every run replays the reference seed's prefix (admission workloads) or
one pipeline pass (``fig14_sim``) and compares it with ``golden.json``:
the admission decision function and the simulator's statistics are the
contract a performance change must keep.  Regenerate the file only when
that contract changes on purpose::

    python3 perfbench/golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict

#: The reference seed the golden outputs are recorded for.
SEED = 1
PATH = Path(__file__).with_name("golden.json")


def load() -> Dict:
    with open(PATH) as handle:
        return json.load(handle)


def compute() -> Dict:
    from perfbench import inproc, simwork

    data: Dict = {"seed": SEED}
    for workload in inproc.LOADS:
        setup = inproc.set_up(workload)
        requests = inproc.golden_requests(workload, setup.devices)
        decisions, _ = inproc.drive(setup.service, requests)
        data[workload] = inproc.verdicts(decisions)
    data["fig14_sim"] = simwork.golden_pass(simwork.set_up())
    return data


def main(argv) -> int:
    if argv != ["--write"]:
        print("usage: golden.py --write", file=sys.stderr)
        return 2
    with open(PATH, "w") as handle:
        json.dump(compute(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    sys.exit(main(sys.argv[1:]))
