#!/usr/bin/env python3
"""Time both verdicts and bisimulation on the largest catalog models.

For filter N=4 and bakery N=3 K=4, in both variable flavors, prints the
states explored, the seconds exploration takes, and the seconds each
verdict spends after exploration (its search and witness).  A second
line per model gives its number of bisimulation classes and whether a
copy with states and transitions shuffled is bisimilar to it, with the
seconds each took, and a SHA-256 digest of the explored transitions.
Exits 1 when a verdict differs from `EXPECTED`, a class count from
`CLASSES`, a digest from `DIGESTS`, or the copy is not bisimilar.  Takes
about 40 s and 160 MB of memory (max RSS, CPython 3.11.7 on a 2-vCPU
x86_64 VM); the digests take about 1 s of it.

    python scripts/scale.py
"""

import hashlib
import pathlib
import random
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
# the benchmark's workloads module holds the shuffled copy; it imports the
# oracle from tests and its helpers from perfbench
sys.path[:0] = [str(ROOT / d) for d in ("src", "tests", "perfbench")]

from ccss import bisim, protocols, verify
from ccss.lts import Lts
from workloads import shuffled_copy

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
# bisimulation classes of each explored system; the flavor of the shared
# variables does not change them
CLASSES = {
    ("filter N=4", "ccs"): 19161,
    ("filter N=4", "ccss"): 19161,
    ("bakery N=3 K=4", "ccs"): 19353,
    ("bakery N=3 K=4", "ccss"): 19353,
}
# `digest` of each explored system: the same under PYTHONHASHSEED=0 and 1
DIGESTS = {
    ("filter N=4", "ccs"):
        "013caf54bc2678b03fb19c6c16a258a6e649fa8f9ba709593ce16f86bc365c80",
    ("filter N=4", "ccss"):
        "d6c335e34aeb421ddf907481bede9224985ce1191b10ca36cd6f33e459349d48",
    ("bakery N=3 K=4", "ccs"):
        "b44fcf72e3e3da052c3c5bd86b7091086210def53185f957bb14b8175d27547d",
    ("bakery N=3 K=4", "ccss"):
        "caf2000a8c5ac41dd10bfadfb55795ffec7782cb3fc7c89d207cbf80eed2958f",
}


def digest(lts: Lts) -> str:
    """SHA-256 over the transitions in index order, one line each: source,
    label text, target and the sorted component slots."""
    h = hashlib.sha256()
    for t in lts.transitions:
        h.update(f"{t.src} {t.label} {t.tgt} {sorted(t.components)}\n"
                 .encode())
    return h.hexdigest()


def timed(check, model):
    """The verdict, the explored system, the seconds in exploration and
    the seconds after it."""
    spent = []
    explore = verify.explore

    def timed_explore(*args, **kwargs):
        started = time.perf_counter()
        lts = explore(*args, **kwargs)
        spent.append((lts, time.perf_counter() - started))
        return lts

    verify.explore = timed_explore
    try:
        started = time.perf_counter()
        verdict = check(model)
        total = time.perf_counter() - started
    finally:
        verify.explore = explore
    (lts, explore_s), = spent
    return verdict, lts, explore_s, total - explore_s


def bisimulation(lts: Lts):
    """The number of classes, the seconds `equivalence_classes` took,
    whether a shuffled copy is bisimilar, and the seconds that query
    took."""
    started = time.perf_counter()
    classes = len(bisim.equivalence_classes(lts))
    classes_s = time.perf_counter() - started
    copy = shuffled_copy(random.Random(0), lts, False)
    started = time.perf_counter()
    same = bisim.bisimilar(lts, lts.initial, copy, copy.initial).equivalent
    return classes, classes_s, same, time.perf_counter() - started


def main() -> int:
    wrong = 0
    print(f"{'model':16} {'flavor':6} {'states':>7} {'explore_s':>9} "
          f"{'safety_s':>8} {'liveness_s':>10}  verdicts")
    for name, make in MODELS.items():
        for flavor in protocols.FLAVORS:
            model = make(flavor)
            safety, _, explore_s, safety_s = timed(
                verify.check_safety, model)
            liveness, lts, explore2_s, liveness_s = timed(
                verify.check_liveness, model)
            states = lts.num_states
            lasso = (liveness.counterexample or (None,))[0]
            got = (safety.holds, liveness.status, liveness.role,
                   lasso and len(lasso.stem), lasso and len(lasso.cycle))
            ok = got == EXPECTED[name, flavor]
            wrong += not ok
            print(f"{name:16} {flavor:6} {states:7} "
                  f"{min(explore_s, explore2_s):9.2f} {safety_s:8.2f} "
                  f"{liveness_s:10.2f}  {got}"
                  f"{'' if ok else ' expected ' + str(EXPECTED[name, flavor])}")
            classes, classes_s, same, bisim_s = bisimulation(lts)
            want = CLASSES[name, flavor]
            ok = classes == want and same
            wrong += not ok
            print(f"{'':16} {'':6} {classes:7} classes in {classes_s:.2f} s,"
                  f" a shuffled copy is {'' if same else 'not '}bisimilar "
                  f"({bisim_s:.2f} s)"
                  f"{'' if classes == want else f' expected {want} classes'}")
            found, pinned = digest(lts), DIGESTS[name, flavor]
            wrong += found != pinned
            print(f"{'':16} {'':6} transitions sha256 {found}"
                  f"{'' if found == pinned else ' expected ' + pinned}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
