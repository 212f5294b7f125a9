#!/usr/bin/env python3
"""Benchmark the arithmetic kernel.

Times exact Gauss-Jordan elimination (rref) and products (matmul) on
random Gaussian-rational matrices, dense and in the pipeline's profile
(sparse, small denominators), plus one end-to-end pipeline run
(analyze, the verification battery and the result document).  Run
from the repository root:

    python3 benchmarks/bench_kernel.py [--sizes 20,40,60] [--trials 3]
"""

import argparse
import random
import time

from acdol import kernel


def random_entries(rng, rows, cols):
    return [[(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9))
             for _ in range(cols)] for _ in range(rows)]


def sparse_entries(rng, rows, cols):
    """The workload profile of the pipeline: sparse blocks, tiny entries."""
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            if rng.random() < 0.15:
                row.append((rng.choice([-1, 1]), rng.choice([-1, 0, 1]),
                            rng.choice([1, 2])))
            else:
                row.append((0, 0, 1))
        out.append(row)
    return out


def block_entries(rng, rows, cols, block=5):
    """Block-diagonal with dense blocks of small entries: each pivot reaches
    only the rows of its own block."""
    out = [[(0, 0, 1)] * cols for _ in range(rows)]
    for start in range(0, min(rows, cols), block):
        for i in range(start, min(start + block, rows)):
            for j in range(start, min(start + block, cols)):
                out[i][j] = (rng.randint(-9, 9), rng.randint(-9, 9),
                             rng.randint(1, 9))
    return out


def lift(data):
    return [[kernel.Scalar(*t) for t in row] for row in data]


def time_op(fn, trials):
    best = None
    for _ in range(trials):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def bench_sizes(sizes, trials, seed):
    print("%-13s %-8s %12s" % ("op", "size", "best[s]"))
    for size in sizes:
        for label, gen in (("rref/dense", random_entries),
                           ("rref/sparse", sparse_entries),
                           ("rref/block", block_entries)):
            rows = lift(gen(random.Random(seed), size, size))
            best = time_op(lambda: kernel.rref(rows, size), trials)
            print("%-13s %-8d %12.4f" % (label, size, best))
        for label, gen in (("matmul/dense", random_entries),
                           ("matmul/sparse", sparse_entries)):
            rng = random.Random(seed + 1)
            a = lift(gen(rng, size, size))
            b = lift(gen(rng, size, size))
            best = time_op(lambda: kernel.matmul(a, b, size), trials)
            print("%-13s %-8d %12.4f" % (label, size, best))


def bench_pipeline(trials):
    from acdol import catalog, pipeline
    doc = catalog.builtin("su2su2-nk")

    def full():
        # analyze computes the metric-free stages only; the battery and the
        # document build and read the harmonic layer
        an = pipeline.analyze_document(doc)
        pipeline.result_document(an, pipeline.verification_checks(an))

    best = time_op(full, trials)
    print("\nfull su2su2-nk analysis (analyze, battery, document): %.3f s"
          % best)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="20,40,60")
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    bench_sizes(sizes, args.trials, args.seed)
    bench_pipeline(max(1, args.trials - 1))


if __name__ == "__main__":
    main()
