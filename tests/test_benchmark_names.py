"""Every hdivkit name the benchmark scripts read still resolves.

perfbench imports hdivkit lazily, so a deleted name would fail only once
a benchmark runs; this scan fails first.  It reads `hdivkit.<name>`
attribute chains, `from hdivkit[.<mod>] import <name>` lines and the
tracer's direct `_wrap(_module("<mod>"), "<name>", ...)` patches.
Spans listed in the tracer's SPANS table are skipped on purpose when
their name is gone, so they are not read here.  The last test pins which
fields the tracer takes for polynomial ones.
"""

import importlib
import pathlib
import re

import numpy as np

import hdivkit

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

# the names the benchmark read when this guard was written: the scan must keep finding them
KNOWN = {
    "piola_push", "norm_Lp", "PhysicalRect", "make_reproduction_field", "reference_operator",
    "reference_projector", "tensor_rule", "build_space", "build_dofs", "build_div_space",
    "InterpolationOperator", "L2Projector", "default_suite_configs", "poly.VectorPoly2D",
    "dofs.dof_vector_ld", "cli.main",
}


def benchmark_names() -> set:
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for module, imported in re.findall(r"^\s*from hdivkit((?:\.\w+)*) import ([\w, ]+)$",
                                           text, re.M):
            names.update(f"{module[1:]}.{name.split()[0]}".lstrip(".")
                         for name in imported.split(","))
        names.update(re.findall(r"(?<!from )\bhdivkit\.((?:[A-Za-z]\w*\.)*[A-Za-z]\w*)", text))
        names.update(".".join(pair) for pair in
                     re.findall(r'_wrap\(_module\("(\w+)"\), "(\w+)"', text))
    return names


def _resolves(dotted: str) -> bool:
    obj, prefix = hdivkit, "hdivkit"
    for part in dotted.split("."):
        prefix += "." + part
        if not hasattr(obj, part):
            try:
                importlib.import_module(prefix)  # a submodule the package does not import
            except ImportError:
                return False
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return True


def test_scan_finds_the_known_names():
    assert KNOWN <= benchmark_names()


def test_every_benchmark_name_resolves():
    missing = sorted(name for name in benchmark_names() if not _resolves(name))
    assert missing == [], f"perfbench reads hdivkit names that are gone: {missing}"


def test_members_are_virtual_vector_polys_for_the_tracer():
    # the tracer counts a DOF vector's field evaluations unless the field is
    # isinstance(…, VectorPoly2D): members are, by registration, not by a base
    from hdivkit.fields import MS_G, CallableField, FieldStack, ManufacturedField
    from hdivkit.harness import PulledBackField
    from hdivkit.poly import VectorPoly2D

    space = hdivkit.build_space("BDM", 2)
    single = space.member(np.arange(space.dim, dtype=float))
    stack = space.member(np.ones((3, space.dim)))
    assert isinstance(MS_G, ManufacturedField)
    assert VectorPoly2D not in hdivkit.SpaceMember.__mro__
    for member in (single, stack):
        assert isinstance(member, VectorPoly2D)
        assert not any(hasattr(member, name) for name in ("u", "v", "divergence"))
    for fld in (MS_G, CallableField(MS_G.uv), FieldStack([MS_G]),
                PulledBackField(single, 0.5, 0.25)):
        assert not isinstance(fld, VectorPoly2D)
