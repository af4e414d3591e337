#!/usr/bin/env python3
"""Reproduce the two counterexamples and their headline numbers.

Prints the unstable eigenvalue of the asymmetric-weights array, the
certificate margin of the 5-chain, and the coupling sweep showing that no
coupling coefficient stabilizes the chain's disagreement dynamics.
"""

import argparse

import numpy as np

from matsync import (
    builtin_example,
    closed_loop,
    laplacian_from_outputs,
    rho_sweep,
    sync_complement_basis,
    verify_cl_detectability,
    condition14,
)


def asymmetric_counterexample():
    print("=== asymmetric edge weights (3 planar systems, complete graph) ===")
    spec = builtin_example("counterexample_asym").spec
    L = laplacian_from_outputs(spec)
    lam, vec = np.linalg.eig(-L)
    k = int(np.argmax(lam.real))
    V = np.kron(sync_complement_basis(3), np.eye(2))
    residual = np.linalg.norm(V.T @ vec[:, k])
    print(f"largest real eigenvalue of -L : {lam[k].real:.4f}")
    print(f"eigenvector sync residual     : {residual:.4f}")
    print("symmetry is the only failed hypothesis; the array does not synchronize\n")


def chain_counterexample(points):
    print("=== 5-chain with CL-detectable outputs ===")
    ex = builtin_example("chain5")
    cert = verify_cl_detectability(ex.spec, ex.P)
    lam2 = ex.spec.lambda2
    report = condition14(cert, lam2)
    abscissa = np.max(np.linalg.eigvals(ex.spec.A).real)
    print(f"drift eigenvalue              : {abscissa:.4f}")
    print(f"certificate eps               : {cert.eps:.4f}")
    print(f"certificate sigma             : {cert.sigma:.4f}")
    print(f"lambda2 of the chain          : {lam2:.4f}")
    print(f"connectivity condition delta  : {report.delta:.4f} (holds: {report.holds})")

    alphas = np.logspace(np.log10(0.1), np.log10(100.0), points)
    results = rho_sweep(ex.spec, ex.P, alphas)
    rhos = np.array([r for _, r in results])
    k = int(np.argmin(rhos))
    print(f"sweep over {points} alphas in [0.1, 100]:")
    print(f"min rho = {rhos[k]:.4f} at alpha = {results[k][0]:.4f} (never negative)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=50, help="sweep resolution")
    args = parser.parse_args()
    asymmetric_counterexample()
    chain_counterexample(args.points)


if __name__ == "__main__":
    main()
