"""The repository's own tools run against the current library API."""

import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DIGEST_GROUPS = ["outputs", "metrics", "trees", "counters", "pages", "stats", "store", "all"]


@pytest.mark.parametrize("flags", [[], ["--evaluate"]], ids=["served", "evaluate"])
def test_digest_prints_one_digest_per_group(flags):
    """`benchmarks/digest.py` reads the engine's trees and stores through
    their public state, and bit-identity checks between two checkouts rest
    on it, so it runs end to end here on a short decode, with and without
    scoring each step (`--evaluate`)."""
    run = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "digest.py"),
                          "--workload", "reuse-drift", "--steps", "4", *flags],
                         cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = [line.split() for line in run.stdout.splitlines()]
    assert [name for name, _ in lines] == DIGEST_GROUPS
    assert all(len(digest) == 64 and int(digest, 16) >= 0 for _, digest in lines)


def test_crossover_prints_one_row_per_key_kind():
    """`benchmarks/crossover.py` measures the README's crossover table, so a
    2000-key run keeps it working against the library API. Level 2 holds
    about 200 points there, at most twice the beam, so each query scans
    level 1 whole and recalls the dense top-64 exactly."""
    run = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "crossover.py"),
                          "--keys", "2000"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    row = re.compile(r"(\w+) +keys= *(\d+) build= *[\d.]+ s tree=[\d.]+ ms "
                     r"recall=([\d.]+) dense=[\d.]+ ms")
    rows = [row.fullmatch(line).groups() for line in run.stdout.splitlines()]
    assert [(kind, n) for kind, n, _ in rows] == [("clustered", "2000"), ("uniform", "2000")]
    assert [recall for _, _, recall in rows] == ["1.000", "1.000"]


def test_step_profile_lists_every_indexed_layers_folds():
    """`benchmarks/step_profile.py` reads the decode tail per step position,
    so a 2-repeat run on reuse-drift (six indexed layers, 16-token pages,
    64 steps) must show each indexed layer folding once per page."""
    run = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "step_profile.py"),
                          "--workload", "reuse-drift", "--repeats", "2"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = run.stdout.splitlines()
    step = re.compile(r"step +(\d+) +[\d.]+ ms  folded: (-|[\d ]+)")
    rows = [step.fullmatch(line).groups() for line in lines[1:-1]]
    assert [int(i) for i, _ in rows] == list(range(64))
    folded = [layer for _, layers in rows if layers != "-" for layer in layers.split()]
    assert sorted(Counter(folded).items()) == [(str(layer), 4) for layer in range(1, 7)]
    assert re.fullmatch(r"median: fold steps [\d.]+ ms \(24 steps\), "
                        r"other steps [\d.]+ ms \(40 steps\)", lines[-1])


def test_micro_benchmarks_run_once_each():
    """`benchmarks/test_micro.py` times the store, the index and the engine's
    selection outside `testpaths`, so timing stays opt-in; one untimed pass
    here keeps those benchmarks working against the library API."""
    run = subprocess.run([sys.executable, "-m", "pytest", "benchmarks", "--benchmark-disable",
                          "-q", "-p", "no:cacheprovider"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout[-3000:]
