#!/usr/bin/env python3
"""Run the safety and liveness checks across the bundled protocol models
and print one summary line per model.  Exits 1 when a verdict differs
from `EXPECTED`.

    python scripts/verify_protocols.py
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ccss import protocols
from ccss.verify import check_liveness, check_safety

CATALOG = [
    ("peterson2 (handshake)", lambda: protocols.peterson2("ccs")),
    ("peterson2 (signals)", lambda: protocols.peterson2("ccss")),
    ("filter N=2 (handshake)", lambda: protocols.filter_lock(2, "ccs")),
    ("filter N=2 (signals)", lambda: protocols.filter_lock(2, "ccss")),
    ("filter N=3 (signals)", lambda: protocols.filter_lock(3, "ccss")),
    ("bakery N=2 K=4 (signals)", lambda: protocols.bakery(2, 4, "ccss")),
]
# (safety holds, liveness status) of each row
EXPECTED = {
    "peterson2 (handshake)": (True, "violated"),
    "peterson2 (signals)": (True, "holds"),
    "filter N=2 (handshake)": (True, "violated"),
    "filter N=2 (signals)": (True, "holds"),
    "filter N=3 (signals)": (True, "violated"),
    "bakery N=2 K=4 (signals)": (True, "holds"),
}
SAFETY = {True: "holds", False: "VIOLATED", None: "unknown"}


def main():
    print(f"{'model':28} {'safety':8} {'liveness':10} {'detail':30} time")
    wrong = 0
    for name, make in CATALOG:
        started = time.monotonic()
        model = make()
        safety = check_safety(model)
        liveness = check_liveness(model)
        detail = ""
        if liveness.status == "violated":
            lasso, justness = liveness.counterexample
            detail = (f"role {liveness.role} starves; cycle of "
                      f"{len(lasso.cycle)} steps")
        elif liveness.exhaustive:
            detail = "exhaustive cycle coverage"
        elapsed = time.monotonic() - started
        got = (safety.holds, liveness.status)
        ok = got == EXPECTED[name]
        wrong += not ok
        print(f"{name:28} {SAFETY[safety.holds]:8} "
              f"{liveness.status:10} {detail:30} {elapsed:5.1f}s"
              f"{'' if ok else ' expected ' + str(EXPECTED[name])}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
