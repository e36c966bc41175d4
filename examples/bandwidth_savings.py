"""Bandwidth-savings scenario: same QoE with less bandwidth (§7.2, Fig. 12b).

Deprecated shim: the sweep now lives in the experiment registry as the
``bandwidth-savings`` demo and runs through the unified CLI —

    python -m repro run bandwidth-savings --scale quick

This script remains so existing invocations keep working; it simply
forwards to the CLI (see docs/EXPERIMENTS.md for the migration table).

Run with:  python examples/bandwidth_savings.py
"""

from __future__ import annotations

import sys

from repro.experiments.cli import main

if __name__ == "__main__":
    sys.exit(main([
        "run", "bandwidth-savings",
        "--scale", "quick", "--no-save",
    ]))
