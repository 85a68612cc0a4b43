"""Replay the golden corpus, one fresh process per case, and report the cases that differ.

Usage, from any directory::

    python tests/data/golden/replay.py [--scipy-free] COMMAND...

``COMMAND`` starts the CLI, say ``relbel`` or ``python -m relbel.cli``; each
case's arguments follow it, run in this directory. A case matches when its
exit code, stdout bytes and stderr are the committed ones. With
``--scipy-free`` the run has no scipy: the cases of ``SCIPY_CASES`` must
instead exit nonzero with stderr naming the missing ``scipy`` module, and
every other case must match. Exits 1 when a case differs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# the cases whose commands evaluate a scipy function: beta densities, normal cell masses
# and the Monte Carlo table
SCIPY_CASES = frozenset({
    "limits-region-beta", "limits-sandwich-beta", "limits-lambda-beta", "limits-map-beta",
    "classify-table1-default", "classify-table1-full", "regress-grid-check",
})


def differing(command: list[str], scipy_free: bool) -> list[str]:
    """The names of the cases whose replay does not give what it must."""
    out = []
    for case in json.loads((HERE / "cases.json").read_text()):
        res = subprocess.run([*command, *case["args"]], capture_output=True, cwd=HERE)
        if scipy_free and case["name"] in SCIPY_CASES:
            ok = res.returncode != 0 and b"No module named 'scipy'" in res.stderr
        else:
            want = (HERE / "out" / f"{case['name']}.txt").read_bytes()
            ok = (res.returncode, res.stdout, res.stderr.decode()) == (case["exit"], want, case["stderr"])
        if not ok:
            out.append(case["name"])
    return out


def main(argv: list[str]) -> int:
    scipy_free = argv[:1] == ["--scipy-free"]
    command = argv[scipy_free:]
    if not command:
        print(__doc__, file=sys.stderr)
        return 2
    differ = differing(command, scipy_free)
    print("golden cases that differ:", differ or "none")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
