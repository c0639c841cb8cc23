"""Merge-kernel backend selection.

Imports the compiled kernel when the extension was built, otherwise the
pure-Python twin.  ``BACKEND`` reports which one is active;
``python -m prefixcode.benchmark`` compares the two.
"""

from __future__ import annotations

try:
    from prefixcode._kernel_cy import run_merges

    BACKEND = "compiled"
except ImportError:  # extension not built on this install
    from prefixcode._kernel_py import run_merges

    BACKEND = "pure"

from prefixcode._kernel_py import merge_until, state_after

__all__ = ["run_merges", "state_after", "merge_until", "BACKEND"]
