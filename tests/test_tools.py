"""The repository's own tools run against the current library API."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

DIGEST_GROUPS = ["outputs", "metrics", "trees", "counters", "pages", "stats", "store", "all"]


def test_digest_prints_one_digest_per_group():
    """`benchmarks/digest.py` reads the engine's trees and stores through
    their public state, and bit-identity checks between two checkouts rest
    on it, so it runs end to end here on a short decode."""
    run = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "digest.py"),
                          "--workload", "reuse-drift", "--steps", "4"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = [line.split() for line in run.stdout.splitlines()]
    assert [name for name, _ in lines] == DIGEST_GROUPS
    assert all(len(digest) == 64 and int(digest, 16) >= 0 for _, digest in lines)


def test_crossover_prints_one_row_per_key_kind():
    """`benchmarks/crossover.py` measures the README's crossover table, so a
    2000-key run keeps it working against the library API."""
    run = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "crossover.py"),
                          "--keys", "2000"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    row = re.compile(r"(\w+) +keys= *(\d+) build= *[\d.]+ s tree=[\d.]+ ms "
                     r"recall=([\d.]+) dense=[\d.]+ ms")
    rows = [row.fullmatch(line).groups() for line in run.stdout.splitlines()]
    assert [(kind, n) for kind, n, _ in rows] == [("clustered", "2000"), ("uniform", "2000")]
    assert all(0.0 <= float(recall) <= 1.0 for _, _, recall in rows)
