"""Fixed reference work whose time tracks the machine's current speed.

Usage: python3 perfbench/calib.py

The benchmark runs this in a fresh process after every measured command.
It does the same kinds of work the commands do, on fixed inputs that no
seed and no change to the package can move: start an interpreter and
import numpy and scipy, parse tab-separated lines in Python, and multiply
a row-normalised sparse graph with power-law degrees by dense float32
features of the paper's width. Its wall time therefore changes only when
the machine's speed does, and `run.py` scales the commands' times by it
(see "Calibration" in README.md).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

LINES = 100_000
ITEMS, EDGES, DIM, PRODUCTS = 2_420, 25_000, 896, 20


def main():
    rng = np.random.default_rng(20240821)
    users = rng.integers(20_000, size=LINES)
    items = rng.integers(12_000, size=LINES)
    text = "".join(f"u{u}\ti{i}\n" for u, i in zip(users.tolist(), items.tolist()))
    parsed = [(int(u[1:]), int(i[1:])) for u, i in (line.split("\t") for line in text.splitlines())]
    if len(parsed) != LINES:
        raise SystemExit("calibration parsed the wrong number of lines")

    rows = rng.integers(ITEMS, size=EDGES)
    cols = (rng.pareto(1.2, size=EDGES) * 20).astype(np.int64) % ITEMS
    adj = sp.csr_matrix((np.ones(EDGES, dtype=np.float32), (rows, cols)), shape=(ITEMS, ITEMS))
    adj = adj + adj.T
    degree = np.maximum(np.asarray(adj.sum(axis=1)).ravel(), 1.0)
    op = (sp.diags((1.0 / degree).astype(np.float32)) @ adj).tocsr()
    x = rng.standard_normal((ITEMS, DIM)).astype(np.float32)
    for _ in range(PRODUCTS):
        x = op @ x
    if not np.isfinite(x).all():
        raise SystemExit("calibration produced non-finite values")


if __name__ == "__main__":
    main()
