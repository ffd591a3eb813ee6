#!/usr/bin/env python3
"""Time both verdicts on the largest catalog models and check them.

For filter N=4 and bakery N=3 K=4, in both variable flavors, prints the
states explored, the seconds exploration takes, and the seconds each
verdict spends after exploration (its search and witness).  Exits 1 when
a verdict differs from `EXPECTED`.  Takes about a minute and 120 MB.

    python scripts/scale.py
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ccss import protocols, verify

MODELS = {
    "filter N=4": lambda flavor: protocols.filter_lock(4, flavor),
    "bakery N=3 K=4": lambda flavor: protocols.bakery(3, 4, flavor),
}
# (safety holds, liveness status, starved role, stem and cycle lengths of
# the counterexample): as README says, filter with N >= 3 is not live
# even with signals, bakery is live only with signals
EXPECTED = {
    ("filter N=4", "ccs"): (True, "violated", "P1", 25, 378),
    ("filter N=4", "ccss"): (True, "violated", "P1", 26, 252),
    ("bakery N=3 K=4", "ccs"): (True, "violated", "P1", 1, 90),
    ("bakery N=3 K=4", "ccss"): (True, "holds", None, None, None),
}


def timed(check, model):
    """The verdict, the states explored, the seconds in exploration and
    the seconds after it."""
    spent = []
    explore = verify.explore

    def timed_explore(*args, **kwargs):
        started = time.perf_counter()
        lts = explore(*args, **kwargs)
        spent.append((lts.num_states, time.perf_counter() - started))
        return lts

    verify.explore = timed_explore
    try:
        started = time.perf_counter()
        verdict = check(model)
        total = time.perf_counter() - started
    finally:
        verify.explore = explore
    (states, explore_s), = spent
    return verdict, states, explore_s, total - explore_s


def main() -> int:
    wrong = 0
    print(f"{'model':16} {'flavor':6} {'states':>7} {'explore_s':>9} "
          f"{'safety_s':>8} {'liveness_s':>10}  verdicts")
    for name, make in MODELS.items():
        for flavor in protocols.FLAVORS:
            model = make(flavor)
            safety, states, explore_s, safety_s = timed(
                verify.check_safety, model)
            liveness, _, explore2_s, liveness_s = timed(
                verify.check_liveness, model)
            lasso = (liveness.counterexample or (None,))[0]
            got = (safety.holds, liveness.status, liveness.role,
                   lasso and len(lasso.stem), lasso and len(lasso.cycle))
            ok = got == EXPECTED[name, flavor]
            wrong += not ok
            print(f"{name:16} {flavor:6} {states:7} "
                  f"{min(explore_s, explore2_s):9.2f} {safety_s:8.2f} "
                  f"{liveness_s:10.2f}  {got}"
                  f"{'' if ok else ' expected ' + str(EXPECTED[name, flavor])}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
