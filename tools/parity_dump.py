"""Dump every differential-harness config on a parent revision and on the working tree.

    python tools/parity_dump.py --parent <rev> [--config ID ...]

The committed tree of ``<rev>`` is exported with ``git archive``
(``bench_compare._export``), and ``python -m tests.differential`` runs from
this working tree twice, in fresh processes: once with the parent's ``src``
on ``PYTHONPATH``, once with the working tree's (``REPRO_FAULTS`` and
``REPRO_SANITIZE`` cleared).  Both use this tree's configs and normalizer
(``tests/differential.py``), so only the engine differs.  The output names
each config whose dumps differ with the first differing field path (or the
error a side raised), then ``N/M configs equal``; the exit status is 0 when
every config is equal and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Sequence

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "src"), str(ROOT)]
from bench_compare import _export  # noqa: E402
from tests.differential import CONFIG_IDS, first_difference  # noqa: E402


def dump(src: Path, ids: list[str], out: Path) -> dict:
    """The normalized dumps of ``ids`` with the engine under ``src``."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("REPRO_FAULTS", "REPRO_SANITIZE")}
    subprocess.run([sys.executable, "-m", "tests.differential", str(out), *ids],
                   cwd=ROOT, env={**env, "PYTHONPATH": str(src)}, check=True)
    return json.loads(out.read_text(encoding="utf-8"))


def compare(ids: list[str], parent: dict, change: dict) -> tuple[list[str], bool]:
    """A line per differing config, then the tally; and whether all are equal."""
    lines = []
    for config_id in ids:
        sides = {"parent": parent.get(config_id), "change": change.get(config_id)}
        path = first_difference(sides["parent"], sides["change"])
        raised = [f"{side} raised {found['error']}" for side, found in sides.items()
                  if isinstance(found, dict) and "error" in found]
        if path is not None:
            lines.append(f"{config_id}: {'; '.join(raised) or path}")
    lines.append(f"{len(ids) - len(lines)}/{len(ids)} configs equal")
    return lines, len(lines) == 1


def parse_args(argv: list[str] | None, names: Sequence[str]) -> argparse.Namespace:
    """The command line; repeated ``--config`` flags accumulate, in order,
    each config once (every config when none is named)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--config", nargs="+", action="extend", choices=names, metavar="ID")
    args = parser.parse_args(argv)
    args.config = list(dict.fromkeys(args.config or names))
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv, CONFIG_IDS)
    with tempfile.TemporaryDirectory(prefix="parity-parent-") as workdir:
        parent_tree = Path(workdir) / "tree"
        parent_tree.mkdir()
        commit = _export(args.parent, parent_tree)
        parent = dump(parent_tree / "src", args.config, Path(workdir) / "parent.json")
        change = dump(ROOT / "src", args.config, Path(workdir) / "change.json")
    lines, ok = compare(args.config, parent, change)
    print(f"parent {commit} vs working tree:", *lines, sep="\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
