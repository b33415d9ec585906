"""Behaviour digest: sha256 of stdout and output files of a fixed CLI set.

    python3 perfbench/digest.py

The set is `tabulate`, `check --kmax 4` and `converge --format json` for
RT/BDM/ABF at k = 0, 2, 4 on MS-X (shrink_x), MS-G (isotropic) and MS-P
(fixed_aspect(64)), all at HDIV_SEED=42.  BDM at k = 0 is a usage error
and stays in the set: its exit code is part of the behaviour.  The digest
and the line count of src/ are informational, not timing gates; a later
change uses them to show that output is unchanged and code shrank.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

DIGEST_SEED = "42"
CONVERGE_CASES = (("MS-X", "shrink_x"), ("MS-G", "isotropic"), ("MS-P", "fixed_aspect(64)"))


def cli_set(output: str) -> list:
    runs = [["tabulate"], ["check", "--kmax", "4"]]
    for family in ("RT", "BDM", "ABF"):
        for k in (0, 2, 4):
            for field, mode in CONVERGE_CASES:
                runs.append(["converge", "--family", family, "--k", str(k), "--field", field,
                             "--mode", mode, "--format", "json", "--output", output])
    return runs


def _run_one(argv, output: str) -> bytes:
    from hdivkit import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    data = b""
    if os.path.exists(output):
        with open(output, "rb") as fh:
            data = fh.read()
        os.remove(output)
    # the output path differs between checkouts; it is not behaviour
    text = out.getvalue().replace(output, "<output>")
    return f"exit={code}\n".encode() + text.encode() + b"\0" + data


def src_lines(src: str) -> dict:
    files = lines = 0
    for dirpath, _, names in os.walk(src):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    lines += fh.read().count(b"\n")
                files += 1
    return {"src_files": files, "src_lines": lines}


def behaviour_digest(workdir: str) -> dict:
    """Run the fixed CLI set in-process; returns total and per-run hashes."""
    output = os.path.join(workdir, "digest-output.json")
    saved = os.environ.get("HDIV_SEED")
    os.environ["HDIV_SEED"] = DIGEST_SEED
    total = hashlib.sha256()
    per_run = {}
    try:
        for argv in cli_set(output):
            blob = _run_one(argv, output)
            total.update(hashlib.sha256(blob).digest())
            shown = " ".join(a if a != output else "<output>" for a in argv)
            per_run[shown] = hashlib.sha256(blob).hexdigest()[:16]
    finally:
        if saved is None:
            os.environ.pop("HDIV_SEED", None)
        else:
            os.environ["HDIV_SEED"] = saved
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return {"sha256": total.hexdigest(), "runs": len(per_run), "per_run": per_run,
            **src_lines(src)}


def main() -> int:
    import run

    run.prepare_environment(int(DIGEST_SEED))
    run.import_hdivkit()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=run.BENCH_DIR) as workdir:
        print(json.dumps(behaviour_digest(workdir), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
