"""Smoke test of the kernel microbenchmark that the README points to."""

import pathlib
import runpy
import sys

SCRIPT = (pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
          / "bench_kernel.py")


def test_bench_kernel_runs_in_process(monkeypatch, capsys):
    # the smallest run: every operation on 4 x 4 matrices once, and the
    # end-to-end su2su2-nk analysis once
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--sizes", "4",
                                      "--trials", "1"])
    runpy.run_path(str(SCRIPT), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    ops = [line.split()[:2] for line in lines[1:6]]
    assert ops == [[op, "4"] for op in ("rref/dense", "rref/sparse",
                                        "rref/block", "matmul/dense",
                                        "matmul/sparse")]
    assert lines[-1].startswith(
        "full su2su2-nk analysis (analyze, battery, document): ")
