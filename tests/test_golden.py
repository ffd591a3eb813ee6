"""Recorded verdicts: safety and liveness on every bundled model file.

`golden/verdicts.json` holds the `to_json()` output of `check_safety`
and `check_liveness` for each `models/*.ccss`, roles inferred by
`protocols.roles_from_file`.  Any change to a verdict, to a
counterexample's transition indices or to its minimal Y shows up here.
After a deliberate verdict change, rewrite the file with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import json
import pathlib
import sys

from ccss import protocols
from ccss.syntax import parse
from ccss.verify import check_liveness, check_safety

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "verdicts.json"


def verdicts() -> dict:
    out = {}
    for path in sorted((ROOT / "models").glob("*.ccss")):
        model = protocols.roles_from_file(parse(path.read_bytes()))
        out[path.name] = {"safety": check_safety(model).to_json(),
                          "liveness": check_liveness(model).to_json()}
    return out


def test_verdicts_on_bundled_models_match_the_recorded_ones():
    assert verdicts() == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(verdicts(), indent=1) + "\n",
                      encoding="utf-8")
    sys.exit(0)
