"""Digests of the outputs a refactor must leave byte-identical.

Runs ``blockmin run`` and then ``blockmin verify`` on every ``configs/*.json``,
and ``blockmin figure`` on ``configs/quadratic.json``, all into a temporary
directory. Prints one ``<sha256>  <name>`` line each for every ``trace.csv``,
the ``results`` of every verify report and ``figure.csv``. The package is
imported from this checkout's ``src/``.

The floats depend on the BLAS build and the CPU, so no digest is pinned:
compare two checkouts on one host, or two runs of one checkout::

    python scripts/trace_digests.py > a.txt
    python scripts/trace_digests.py > b.txt
    diff a.txt b.txt

Exits 1 if a command fails (verify may report violations; its results are
digested all the same).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from blockmin import cli  # noqa: E402


def _quiet(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of ``blockmin argv``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(tmp: Path) -> list[tuple[str, str]]:
    lines = []
    for cfg in sorted((ROOT / "configs").glob("*.json")):
        out = tmp / cfg.stem
        rc, _ = _quiet(["run", "--config", str(cfg), "--out", str(out)])
        if rc != 0:
            raise SystemExit(f"error: run on {cfg.name} exited {rc}")
        trace = out / "trace.csv"
        lines.append((_sha(trace.read_bytes()), f"{cfg.stem}/trace.csv"))
        rc, text = _quiet(["verify", "--trace", str(trace), "--config", str(cfg)])
        if rc not in (0, 1):
            raise SystemExit(f"error: verify on {cfg.name} exited {rc}")
        results = json.dumps(json.loads(text)["results"], sort_keys=True)
        lines.append((_sha(results.encode("utf-8")), f"{cfg.stem}/verify.results"))
    figure = tmp / "figure.csv"
    rc, _ = _quiet(["figure", "--config", str(ROOT / "configs" / "quadratic.json"),
                    "--out", str(figure)])
    if rc != 0:
        raise SystemExit(f"error: figure exited {rc}")
    lines.append((_sha(figure.read_bytes()), "figure.csv"))
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for digest, name in digests(Path(tmp)):
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
