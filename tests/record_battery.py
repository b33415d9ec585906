"""Records of a 2800-study battery, for bit-for-bit comparison of two trees.

    python3 tests/record_battery.py SRC OUT

imports hdivkit from SRC and writes, for every (family, k) x study field x
mode x p x h0 at 6 levels, the records (hex floats), verdicts and flags
as JSON to OUT.  Two trees agree bit for bit when their OUT files compare
equal (cmp, or one sha256).  The battery covers what the behaviour
digest does not: MS-Y, shrink_y, p in {1, 1.5, 3, 40} (p = 40 sends the
fine levels of ABF_2-4 MS-P into the L^p rescaling fallback) and the
non-dyadic h0 = 0.3.  A RuntimeWarning is an error.  The file name keeps
pytest from collecting it.
"""

import itertools
import json
import sys
import warnings

MODES = (("shrink_x", 64.0), ("shrink_y", 64.0), ("isotropic", 64.0), ("fixed_aspect", 64.0),
         ("fixed_aspect", 0.5))
FIELDS = ("MS-G", "MS-X", "MS-Y", "MS-P")
PS = (1.0, 1.5, 2.0, 3.0, 40.0)
H0S = (0.5, 0.3)


def battery() -> list:
    from hdivkit.elements import ElementFamily, degree_range
    from hdivkit.harness import StudyConfig, run_refinement_study

    pairs = [(f, k) for f in ElementFamily for k in degree_range(f)]
    out = []
    for (f, k), fld, (mode, rho), p, h0 in itertools.product(pairs, FIELDS, MODES, PS, H0S):
        t = run_refinement_study(StudyConfig(f, k, p, fld, mode, rho=rho, h0=h0))
        records = [[r.level, r.hx.hex(), r.hy.hex(), *(e.hex() for e in r.errors.values())]
                   for r in t.records]
        out.append([f.value, k, fld, mode, rho, p, h0, records,
                    *(j.verdict for j in t.judged.values()),
                    {w: j.flags for w, j in t.judged.items() if j.flags}])
    return out


def main(argv) -> int:
    if len(argv) != 3:
        print("usage: record_battery.py SRC OUT", file=sys.stderr)
        return 2
    sys.path.insert(0, argv[1])
    warnings.simplefilter("error", RuntimeWarning)
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(battery(), fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
