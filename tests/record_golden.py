"""Record test_golden's CLI outputs again: ``PYTHONPATH=src python tests/record_golden.py``.

Prints every cell (text between commas, spaces, brackets, quotes, ``=``, ``<``
or ``>``) that differs from tests/golden/outputs.json, then the largest
absolute and relative change of a numeric cell, and rewrites the file.
"""

import contextlib
import json
import math
import re
import tempfile

from test_golden import GOLDEN, run_commands


def _cells(recording: dict) -> dict:
    """Every cell of a recording, by command | output:line:column."""
    cells = {}
    for line, record in recording.items():
        texts = {"exit": [str(record["exit"])], "stdout": record["stdout"], "stderr": record["stderr"]}
        for name, kept in record["files"].items():
            texts.update({name: kept} if isinstance(kept, list)
                         else {f"{name} {key}": [str(v)] for key, v in kept.items()})
        for label, lines in texts.items():
            for i, text in enumerate(lines, 1):
                for j, cell in enumerate(re.split(r'[,\s=\[\]"<>]+', text), 1):
                    cells[f"{line} | {label}:{i}:{j}"] = cell
    return cells


def main() -> None:
    old = _cells(json.loads(GOLDEN.read_text(encoding="utf-8"))) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as workdir:
        recording = run_commands(workdir)
    new, largest = _cells(recording), {}
    changed = [where for where in dict.fromkeys([*old, *new]) if old.get(where) != new.get(where)]
    for where in changed:
        print(f"{where}: {old.get(where, '')} -> {new.get(where, '')}")
        with contextlib.suppress(TypeError, ValueError):
            a, b = float(old.get(where)), float(new.get(where))
            relative = abs(b - a) / abs(a) if a else math.inf if b else 0.0
            for kind, value in (("absolute", abs(b - a)), ("relative", relative)):
                if value > largest.get(kind, (0.0,))[0]:
                    largest[kind] = (value, where)
    print(f"{len(changed)} changed cells" if changed else "no change")
    for kind, (value, where) in largest.items():
        print(f"largest {kind} change {value:.3g} at {where}")
    GOLDEN.write_text(json.dumps(recording, indent=0) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
