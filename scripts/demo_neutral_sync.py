#!/usr/bin/env python3
"""Synchronize the bundled physical arrays with the neutral-stability recipes.

Runs the mass-spring and LC demos under the continuous-time recipe and a
ring of rotation systems under the discrete-time one, printing the
synchronization-error decay for each.
"""

import argparse

import numpy as np

from matsync import (
    ArraySpec,
    builtin_example,
    closed_loop,
    gains_ct_neutral,
    gains_dt_neutral,
    simulate_ct,
    simulate_dt,
)


def run_ct(name, seed, horizon):
    spec = builtin_example(name).spec
    gs = gains_ct_neutral(spec)
    cl = closed_loop(spec, gs)
    rng = np.random.default_rng(seed)
    trace = simulate_ct(cl, rng.standard_normal(spec.q * spec.n), T=horizon, h=5e-3)
    print(
        f"{name:18s} sync error {trace.sync_error[0]:.3e} -> {trace.sync_error[-1]:.3e}"
        f"  [{trace.verdict()}]"
    )


def run_dt_ring(seed, steps):
    th = 0.9
    A = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    edges = [(0, 1), (1, 2), (2, 0)]
    C = {}
    for (i, j) in edges:
        C[(i, j)] = np.eye(2)
        C[(j, i)] = np.eye(2)
    spec = ArraySpec(q=3, n=2, A=A, C=C, time_domain="discrete")
    gs = gains_dt_neutral(spec)
    cl = closed_loop(spec, gs)  # steps with eps = eps_bar
    rng = np.random.default_rng(seed)
    trace = simulate_dt(cl, rng.standard_normal(6), K=steps)
    print(
        f"{'rotation_ring_dt':18s} sync error {trace.sync_error[0]:.3e} -> "
        f"{trace.sync_error[-1]:.3e}  [{trace.verdict()}]  (eps_bar = {gs.eps_bar:.4f})"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--horizon", type=float, default=250.0)
    parser.add_argument("--steps", type=int, default=4000)
    args = parser.parse_args()
    run_ct("mass_spring_demo", args.seed, args.horizon)
    run_ct("lc_demo", args.seed, args.horizon)
    run_dt_ring(args.seed, args.steps)


if __name__ == "__main__":
    main()
