"""The three benchmark workloads: verify, refine and build.

Each workload is a closed loop with one caller: a pass is a list of units,
and the next unit starts only when the previous one has returned.  A unit
is one operation for the attempted/failed counts.  `run_unit` raises when
the operation fails; a study verdict of `fail` or `inconclusive` is an
output of the program, not a failed operation.

hdivkit is imported lazily so that the set-up timer (see run.py) covers
the import.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
from collections import Counter

# The guarantees the program states (cli.py, harness.py); the benchmark
# checks outputs against them and reports the correct digits left.
PROJECTION_TOL = 1e-12
COMMUTING_TOL = 1e-10
REPRO_TOL = 1e-12
COND_LIMIT = 1e9
DOUBLE_EPS = 2.0**-52

FAMILY_DEGREES = (("RT", range(0, 5)), ("BDM", range(1, 5)), ("ABF", range(0, 5)))
PAIRS = tuple((f, k) for f, ks in FAMILY_DEGREES for k in ks)
COMMUTING_KMAX = 3
NONPOLY_POINTS = 20

_CHECK_LINE = re.compile(r"^(projection|commuting) (\w+_\d+): \w+=(\S+) (ok|FAIL)$")
_VERDICT_LINE = re.compile(r"^(field|div): .* verdict=(\w+)(.*)$")


class UnitFailed(Exception):
    """An operation broke one of the program's guarantees."""


def error_digits(error: float) -> float:
    """Correct decimal digits left by a relative error: -log10(error)."""
    return -math.log10(max(abs(error), 1e-300))


def call_cli(argv):
    """hdivkit.cli.main(argv) with stdout captured; returns (code, text)."""
    from hdivkit import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _warm(operators=(), projectors=(), nonpoly_rule=False):
    import hdivkit

    for family, k in operators:
        hdivkit.reference_operator(family, k)
    for family, k in projectors:
        hdivkit.reference_projector(family, k)
    if nonpoly_rule:
        hdivkit.tensor_rule(NONPOLY_POINTS, NONPOLY_POINTS)


class Workload:
    name = ""

    def __init__(self):
        # fewest correct digits over the run's checked errors
        self.worst_digits = math.inf
        self.worst_margin = math.inf
        self.accuracy_samples = 0
        self.cli_bytes = 0

    def setup(self) -> None:
        """Cold construction of everything the passes use."""

    def pass_units(self, rng) -> list:
        raise NotImplementedError

    def run_unit(self, unit) -> None:
        raise NotImplementedError

    def summary(self) -> dict:
        return {"worst_margin_digits": self.worst_margin}

    def _accuracy(self, error: float, bound: float) -> None:
        # The gated figure counts digits from an error of 1, not from the
        # bound: a margin of ~2.5 digits moves by a fifth between seeds,
        # ~14.5 correct digits by a thirtieth.  The margin is recorded too.
        self.accuracy_samples += 1
        self.worst_digits = min(self.worst_digits, error_digits(error))
        self.worst_margin = min(self.worst_margin, error_digits(error) - error_digits(bound))


class Verify(Workload):
    """Repeated in-process `hdivkit check --kmax 4` over all families.

    A pass is one `check --family F --kmax 4` per family: the same checks
    on the same members as one all-family call (each (family, k) seeds its
    own generator), in three units, so the reference kernel can be timed
    between them.
    """

    name = "verify"

    def __init__(self, families=("RT", "BDM", "ABF"), kmax=4, extra=()):
        super().__init__()
        self.units = [("check", "--family", f, "--kmax", str(kmax), *extra) for f in families]
        self.pairs = [(f, k) for f, ks in FAMILY_DEGREES if f in families for k in ks
                      if k <= kmax]
        self.reference_text = {}

    def setup(self):
        _warm(operators=self.pairs,
              projectors=[(f, k) for f, k in self.pairs if k <= COMMUTING_KMAX],
              nonpoly_rule=True)

    def pass_units(self, rng):
        return list(self.units)

    def run_unit(self, argv):
        code, text = call_cli(list(argv))
        self.cli_bytes += len(text.encode())
        lines = text.splitlines()
        if code != 0 or not lines or lines[-1] != "all checks passed":
            raise UnitFailed(f"check exited {code}: {lines[-1] if lines else '(no output)'}")
        for line in lines:
            m = _CHECK_LINE.match(line)
            if m:
                bound = PROJECTION_TOL if m.group(1) == "projection" else COMMUTING_TOL
                self._accuracy(float(m.group(3)), bound)
        if text != self.reference_text.setdefault(argv, text):
            raise UnitFailed("check output differs from the first pass")


class Study:
    """One `hdivkit converge` invocation of the refine battery."""

    def __init__(self, family, k, p, field, mode, levels, h0):
        self.family, self.k, self.p = family, int(k), float(p)
        self.field, self.mode, self.levels, self.h0 = field, mode, int(levels), float(h0)

    @property
    def tag(self) -> str:
        mode = re.sub(r"[^\w]+", "", self.mode)
        return f"{self.family}_{self.k}_{self.field}_{mode}_p{self.p:g}_L{self.levels}"

    def argv(self, output: str) -> list:
        return ["converge", "--family", self.family, "--k", str(self.k), "--p", repr(self.p),
                "--field", self.field, "--mode", self.mode, "--levels", str(self.levels),
                "--h0", repr(self.h0), "--format", "json", "--output", output]


def refine_battery() -> list:
    """The 48 default-suite studies plus 18 high-degree 8-level studies."""
    import hdivkit

    studies = [Study(c.family.value, c.k, c.p, c.field, c.mode, c.levels, c.h0)
               for c in hdivkit.default_suite_configs()]
    for family in ("RT", "BDM", "ABF"):
        for k in (3, 4):
            for field, mode in (("MS-G", "isotropic"), ("MS-P", "fixed_aspect(64)"),
                                ("MS-X", "shrink_x")):
                studies.append(Study(family, k, 2.0, field, mode, 8, 0.5))
    return studies


class Refine(Workload):
    """Repeated passes of a fixed `hdivkit converge` study battery."""

    name = "refine"

    def __init__(self, workdir: str, studies=None):
        super().__init__()
        self.workdir = workdir
        self.studies = studies
        self.outputs = {}
        self.verdicts = {}
        self.field_norms = {}
        self.repro_abs = {}

    def setup(self):
        if self.studies is None:
            self.studies = refine_battery()
        _warm(operators=sorted({(s.family, s.k) for s in self.studies}), nonpoly_rule=True)

    def pass_units(self, rng):
        units = list(self.studies)
        rng.shuffle(units)
        return units

    def run_unit(self, study):
        path = os.path.join(self.workdir, study.tag + ".json")
        code, text = call_cli(study.argv(path))
        if code not in (0, 1):
            raise UnitFailed(f"{study.tag}: converge exited {code}")
        with open(path, "rb") as fh:
            data = fh.read()
        self.cli_bytes += len(text.encode()) + len(data)
        payload = json.loads(data)
        records = payload["records"]
        if len(records) != study.levels:
            raise UnitFailed(f"{study.tag}: {len(records)} records for {study.levels} levels")
        errors = [r[key] for r in records for key in ("err_field", "err_div")]
        if not all(isinstance(e, (int, float)) and math.isfinite(e) for e in errors):
            raise UnitFailed(f"{study.tag}: non-finite error")
        if study.field == "MS-P":
            worst = max(self._relative_errors(study, records))
            if worst > REPRO_TOL:
                raise UnitFailed(f"{study.tag}: relative reproduction error {worst:.3e}")
            self._accuracy(worst, REPRO_TOL)
            self.repro_abs[study.tag] = max(errors)
        verdicts = {}
        for line in text.splitlines():
            m = _VERDICT_LINE.match(line)
            if m:
                verdicts[m.group(1)] = (m.group(2), "superconvergent" in m.group(3))
        if set(verdicts) != {"field", "div"}:
            raise UnitFailed(f"{study.tag}: verdict lines missing")
        first = self.outputs.setdefault(study.tag, data)
        if data != first:
            raise UnitFailed(f"{study.tag}: output differs from the first pass")
        self.verdicts[study.tag] = verdicts

    def _relative_errors(self, study, records) -> list:
        """MS-P errors relative to the reproduced field's own size.

        The recorded div error is already relative to the div norm.  The
        field error is normalised by the measure only, so it grows with the
        Piola factor 1/h (to 5.6e-11 for ABF_4 at aspect 64, level 7, while
        the relative error stays near 1e-15); like `check`, the guarantee is
        judged relative to the field.  The norms come from the same seeded
        member and are computed once per study.
        """
        import hdivkit

        norms = self.field_norms.get(study.tag)
        if norms is None:
            member = hdivkit.make_reproduction_field(study.family, study.k).member
            norms = []
            for r in records:
                rect = hdivkit.PhysicalRect(r["hx"], r["hy"])
                norms.append(hdivkit.norm_Lp(hdivkit.piola_push(rect, member), rect,
                                             study.p, "field"))
            self.field_norms[study.tag] = norms
        out = []
        for r, norm in zip(records, norms):
            measure = (r["hx"] * r["hy"]) ** (1.0 / study.p)
            out += [r["err_field"] * measure / norm, r["err_div"]]
        return out

    def tallies(self) -> dict:
        """Verdicts over the battery; superconvergent passes also count as pass."""
        out = Counter({"pass": 0, "fail": 0, "inconclusive": 0, "superconvergent": 0})
        for verdicts in self.verdicts.values():
            for verdict, superconvergent in verdicts.values():
                out[verdict] += 1
                out["superconvergent"] += superconvergent
        return dict(out)

    def summary(self):
        failing = sorted(f"{tag} {which}: {v}" for tag, vs in self.verdicts.items()
                         for which, (v, _) in vs.items() if v != "pass")
        worst = max(self.repro_abs.items(), key=lambda kv: kv[1], default=(None, 0.0))
        return {**super().summary(), "studies": len(self.studies),
                "verdict_tallies": self.tallies(),
                "non_pass_verdicts": failing,
                "ms_p_worst_recorded_error": {"study": worst[0], "error": worst[1]}}


class Build(Workload):
    """Repeated uncached construction of space, DOFs, operator and projector."""

    name = "build"

    def __init__(self, pairs=PAIRS):
        super().__init__()
        self.pairs = pairs
        self.reference_condition = {}

    def setup(self):
        import hdivkit

        _warm(operators=self.pairs, projectors=self.pairs)
        for family, k in self.pairs:
            self.reference_condition[(family, k)] = hdivkit.reference_operator(family, k).condition

    def pass_units(self, rng):
        units = list(self.pairs)
        rng.shuffle(units)
        return units

    def run_unit(self, pair):
        import hdivkit

        family, k = pair
        space = hdivkit.build_space(family, k)
        dofs = hdivkit.build_dofs(family, k)
        op = hdivkit.InterpolationOperator(space, dofs)
        div_space = hdivkit.build_div_space(family, k)
        proj = hdivkit.L2Projector(div_space)
        if dofs.count != space.dim or proj.scalar_space.dim != div_space.dim:
            raise UnitFailed(f"{family}_{k}: dimension mismatch")
        if not op.condition <= COND_LIMIT:
            raise UnitFailed(f"{family}_{k}: DOF matrix condition {op.condition:.3e}")
        if op.condition != self.reference_condition[pair]:
            raise UnitFailed(f"{family}_{k}: condition differs from the cached operator")
        # build has no field to reproduce: its figure is the digits a
        # double-precision solve with the DOF matrix keeps, cond * eps
        self._accuracy(op.condition * DOUBLE_EPS, COND_LIMIT * DOUBLE_EPS)


WORKLOADS = ("verify", "refine", "build")


def make(name: str, workdir: str) -> Workload:
    if name == "verify":
        return Verify()
    if name == "refine":
        return Refine(workdir)
    if name == "build":
        return Build()
    raise ValueError(f"unknown workload {name!r}")
