"""Random ensembles, product bounds, and machine-readable reports.

Beyond the fixed models, the package ships seeded random generators, a
check that defect ranks of a product tuple respect their sandwich
bounds, a rank-symmetry probe for power rows, and a suite runner whose
JSON reports are byte-reproducible.  This script samples each of those.

Run it directly:

    python demos/ensembles_and_reports.py
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from defectseq import (
    defect_dimension,
    fock_creation,
    random_contractive,
    rank_symmetry_check,
    read_tuple,
    run_suite,
    tuple_to_payload,
    verify_product_bounds,
    write_tuple,
)


def main():
    print("Seeded ensembles and reports")
    print("=" * 52)

    # Random contractions with a prescribed first defect rank.  The
    # same seed always reproduces the same matrices.
    print("\nRandom tuples with prescribed defect rank:")
    for seed in range(4):
        T = random_contractive(2, 6, 1 + seed % 3, seed)
        print(f"  seed {seed}: requested rank {1 + seed % 3},"
              f" measured {defect_dimension(T, 1)}")

    # Defect ranks of a product BC sit between the rank for B and the
    # rank for B plus d_B times the rank for C.
    print("\nProduct sandwich bounds on random pairs:")
    for seed in range(3):
        rng = np.random.default_rng(seed)
        b = random_contractive(2, 5, 1, rng)
        c = random_contractive(2, 5, 2, rng)
        chk = verify_product_bounds(b, c)
        print(f"  seed {seed}: {chk.delta_b} <= {chk.delta_bc}"
              f" <= {chk.delta_b} + {chk.factor_count}*{chk.delta_c}"
              f"  ok = {chk.ok}")

    # For the n-th power row, the defect ranks on the two sides differ
    # by exactly (d^n - 1) times the space dimension, so the ranks
    # agree precisely when the two kernels match.
    T = random_contractive(2, 4, 2, 9)
    v = rank_symmetry_check(T, 2)
    print(f"\nPower-row rank symmetry at step 2: left {v.rank_left},"
          f" right {v.rank_right}, kernels equal = {v.equal_kernels}")

    # Tuples round-trip through JSON files bit for bit.  The writer
    # stores the entries densely or as nonzeros, whichever is smaller.
    print("\nJSON round trips:")
    with tempfile.TemporaryDirectory() as tmp:
        for S in (T, fock_creation(2, 4)):
            path = Path(tmp) / "tuple.json"
            write_tuple(S, path, meta={"note": "demo artifact"})
            back = read_tuple(path)
            exact = all(np.array_equal(x, y)
                        for x, y in zip(S.ops, back.ops))
            payload = tuple_to_payload(S)
            print(f"  {S.dtype} tuple on C^{S.h}: bit-exact = {exact},"
                  f" encoding {payload['encoding']},"
                  f" {path.stat().st_size} bytes")
        print(f"  payload keys: {sorted(payload)}")

    # The property suites re-derive the structural facts on fresh
    # seeded samples.  Identical inputs give identical results.
    res = run_suite("lemma21", samples=8, seed=1)
    again = run_suite("lemma21", samples=8, seed=1)
    print(f"\nSuite '{res.name}': {res.passes}/{res.checks} checks,"
          f" reproducible = {res == again}")
    print("  description:", json.dumps(res.description))


if __name__ == "__main__":
    main()
