#!/usr/bin/env python3
"""Empirical sandwich-constant study.

Solves u = W(u^q dsigma) + W mu over a seeded measure corpus, evaluates the
bilateral bound R = (W sigma)^gamma + K sigma + W mu at representative
probes, and writes the per-probe ratios u/R to CSV.  The interesting outputs
are the empirical constants c1 = min ratio and c2 = max ratio and their
stability across measures and parameter tuples.

Usage:
    python3 scripts/sandwich_experiment.py --out sandwich.csv \
        --triples "2,0.5,1,3 3,1,1,5" --count 10 --seed 11
"""

import argparse
import csv
import json
import sys

import numpy as np

from wolffkit import (PointSet, QuadratureConfig, as_atomic, bound_field,
                      solve_monotone, validate_params, zero_measure)
from wolffkit.corpus import gen_corpus


def run_triple(pr, corpus, tol, writer):
    cfg = QuadratureConfig()
    ratios = []
    for name, sigma in corpus:
        rep = solve_monotone(pr, sigma, zero_measure(pr.n), u0_mode="seeded",
                             tol=tol, cfg=cfg)
        if rep.status != "converged":
            print(f"  {name}: solver status {rep.status}, skipped",
                  file=sys.stderr)
            continue
        pts = rep.u.points.points
        d = np.linalg.norm(pts, axis=1)
        probes = list({int(np.argmin(d)), int(np.argsort(d)[len(d) // 2]),
                       int(np.argmax(d))})
        bound, rows = bound_field(pr, sigma, zero_measure(pr.n),
                                  PointSet(pts[probes]), 10, cfg)
        for i, R, terms in zip(probes, bound.values.tolist(), rows):
            ratio = float(rep.u.values[i] / R)
            ratios.append(ratio)
            writer.writerow([pr.p, pr.q, pr.alpha, pr.n, name, i,
                             float(rep.u.values[i]), R, ratio,
                             terms["wolff_term"], terms["intrinsic_term"]])
    return ratios


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--triples", default="2,0.5,1,3 3,1,1,5 2,0.5,0.75,3",
                    help="space-separated p,q,alpha,n tuples")
    ap.add_argument("--count", type=int, default=10)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--tol", type=float, default=1e-6)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    with open(args.out, "w", newline="") as f:
        f.write("# config: " + json.dumps(vars(args), sort_keys=True) + "\n")
        w = csv.writer(f)
        w.writerow(["p", "q", "alpha", "n", "measure", "probe", "u", "R",
                    "ratio", "wolff_term", "intrinsic_term"])
        for spec in args.triples.split():
            p, q, alpha, n = (float(v) for v in spec.split(","))
            pr = validate_params(p, q, alpha, int(n))
            corpus = [(name, as_atomic(m, shells_per_bin=2,
                                       directions_per_shell=8))
                      for name, m in gen_corpus(args.seed, pr.n, args.count)]
            ratios = run_triple(pr, corpus, args.tol, w)
            if ratios:
                c1, c2 = min(ratios), max(ratios)
                print(f"({spec}): c1 = {c1:.3f}, c2 = {c2:.3f}, "
                      f"spread = {c2 / c1:.2f} over {len(ratios)} probes")


if __name__ == "__main__":
    main()
