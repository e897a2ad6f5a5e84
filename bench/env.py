"""Locate the checkout's ``src/`` tree so the benchmark measures that code.

The benchmark runs from the root of a source checkout and never relies on
an installed ``bncover``: without ``src/bncover`` it stops with an error.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSource(RuntimeError):
    pass


def require_src() -> None:
    if not (SRC / "bncover" / "__init__.py").is_file():
        raise MissingSource(f"no bncover sources under {SRC}; run from a source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
