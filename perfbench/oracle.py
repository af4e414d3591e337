"""Independent checks of CLI outputs.

Nothing here calls matsync.  The non-synchronous spectrum is computed on
the disagreement quotient: with V = Q (x) I_n, where Q is an orthonormal
basis of the complement of 1_q, the sync subspace 1 (x) R^n is invariant
under any matrix-weighted Laplacian coupling, so the closed-loop spectrum
outside it is exactly eig(V' Psi V).  Each check returns a list of
problems; an empty list means the output is accepted.
"""

from __future__ import annotations

import numpy as np

MAX_TRACE_ROWS = 100_000
CONVERGED_RATIO = 1e-4
DIVERGED_RATIO = 10.0
SYNC_ABS_FLOOR = 1e-9
BOUND_CAP_FACTOR = 1e8


# --- parsing -----------------------------------------------------------------


def parse_gains(text):
    """Gains document -> (scalars, {(i, j): G}) with 0-based edge keys."""
    scalars, gains, rows, key = {}, {}, None, None
    for line in text.splitlines():
        tok = line.split()
        if not tok or tok[0].startswith("#"):
            continue
        if tok[0] == "gain":
            key = (int(tok[1]) - 1, int(tok[2]) - 1)
            rows = gains.setdefault(key, [])
        elif tok[0] == "P":
            rows = []
        elif len(tok) == 2 and not _is_number(tok[0]):
            scalars[tok[0]] = tok[1]
            rows = None
        elif rows is not None:
            rows.append([float(t) for t in tok])
    return scalars, {k: np.array(v, dtype=float) for k, v in gains.items()}


def _is_number(tok):
    try:
        float(tok)
    except ValueError:
        return False
    return True


def parse_report(text):
    """`check` output -> {key: value}, with every `detectable` line in a list."""
    out = {"detectable": []}
    for line in text.splitlines():
        tok = line.split()
        if not tok:
            continue
        if tok[0] == "detectable":
            out["detectable"].append(tok[-1])
        else:
            out[tok[0]] = " ".join(tok[1:])
    return out


# --- closed loop and quotient -------------------------------------------------


def coupling_matrix(weights, q, n):
    """Block Laplacian: block (i, i) += W_ij and block (i, j) -= W_ij per edge."""
    L = np.zeros((q * n, q * n))
    for (i, j), W in weights.items():
        L[i * n:(i + 1) * n, i * n:(i + 1) * n] += W
        L[i * n:(i + 1) * n, j * n:(j + 1) * n] -= W
    return L


def closed_loop_matrix(case, gains, epsilon=None):
    """Psi = I (x) A - L_GC in continuous time, M = I (x) A - eps L_GC in discrete."""
    weights = {e: gains[e] @ C for e, C in case.C.items() if e[0] != e[1]}
    L = coupling_matrix(weights, case.q, case.n)
    base = np.kron(np.eye(case.q), case.A)
    if case.domain == "continuous":
        return base - L
    return base - (1.0 if epsilon is None else epsilon) * L


def quotient_basis(q, n):
    """V = Q (x) I_n with Q an orthonormal basis of the complement of 1_q."""
    ones = np.ones((q, 1)) / np.sqrt(q)
    full, _ = np.linalg.qr(np.hstack([ones, np.eye(q)[:, : q - 1]]))
    return np.kron(full[:, 1:], np.eye(n))


def quotient_spectrum(system, q, n):
    V = quotient_basis(q, n)
    return np.linalg.eigvals(V.T @ system @ V)


def rho(system, q, n):
    return float(quotient_spectrum(system, q, n).real.max())


# --- command checks -----------------------------------------------------------


def check_report(case, rc, text):
    """`check`: exit code and the assumption lines against the generator."""
    problems = []
    if rc != case.expect_check:
        problems.append(f"check exit {rc}, expected {case.expect_check}")
    r = parse_report(text)
    want = {"q": str(case.q), "n": str(case.n), "time_domain": case.domain,
            "symmetric": _b(case.expect_symmetric), "connected": "true"}
    if case.kind != "bundled":
        edges = sum(i != j for i, j in case.C)
        want["complete"] = _b(edges == case.q * (case.q - 1))
        want["stability"] = f"{case.domain} {stability(case.A, case.domain)}"
        suffix = "ct" if case.domain == "continuous" else "dt"
        want[f"assumption_neutral_{suffix}"] = _b(neutral_expected(case))
        if case.domain == "continuous":
            # invertible outputs: P = t I is a common Lyapunov matrix for small t
            want["assumption_cl_detectability"] = "true"
    for k, v in want.items():
        if r.get(k) != v:
            problems.append(f"check {case.name}: {k} = {r.get(k)!r}, expected {v!r}")
    if case.expect_symmetric and case.kind != "bundled":
        if r["detectable"] != ["true"] * (len(case.C) // 2):
            problems.append(f"check {case.name}: detectable lines {r['detectable']}")
    return problems


def _b(x):
    return "true" if x else "false"


def stability(A, domain):
    lam = np.linalg.eigvals(A)
    tol = 1e-8 * max(np.linalg.norm(A, 2), 1e-300)
    margin = -lam.real if domain == "continuous" else 1.0 - np.abs(lam)
    if np.any(margin < -tol):
        return "unstable"
    return "neutrally_stable" if np.any(np.abs(margin) <= tol) else "stable"


def neutral_expected(case):
    return stability(case.A, case.domain) != "unstable"


def check_gains(case, op, rc, text):
    """`gains`: exit code, one gain per edge, and the quotient's stability."""
    if rc != op.expect_rc:
        return [f"gains {case.name}: exit {rc}, expected {op.expect_rc}"]
    if rc != 0:
        return []
    scalars, gains = parse_gains(text)
    if set(gains) != set(case.C):
        return [f"gains {case.name}: edges {sorted(gains)} != {sorted(case.C)}"]
    eps = float(scalars.get("epsilon", scalars.get("eps_bar", 1.0)))
    lam = quotient_spectrum(closed_loop_matrix(case, gains, eps), case.q, case.n)
    stable = bool(lam.real.max() < 0.0) if case.domain == "continuous" else bool(
        np.abs(lam).max() < 1.0)
    if stable != op.quotient_stable:
        return [f"gains {case.name}: quotient stable = {stable}, expected {op.quotient_stable}"]
    return []


def sweep_P(case):
    """The P the sweep uses: the document's, or the Lyapunov warm start."""
    if case.P is not None:
        return case.P
    import scipy.linalg as sla

    return sla.solve_continuous_lyapunov(case.A.T, -np.eye(case.n))


def check_sweep(case, op, rc, text):
    """`sweep`: every (alpha, rho) line against the quotient spectrum."""
    if rc != op.expect_rc:
        return [f"sweep {case.name}: exit {rc}, expected {op.expect_rc}"]
    lines = text.splitlines()
    pairs = [tuple(float(t) for t in ln.split()) for ln in lines if not ln.startswith("#")]
    if len(pairs) != op.work:
        return [f"sweep {case.name}: {len(pairs)} points, expected {op.work}"]
    P = sweep_P(case)
    problems = []
    for alpha, r in pairs:
        gains = {e: alpha * np.linalg.solve(P, C.T) for e, C in case.C.items()}
        system = closed_loop_matrix(case, gains)
        want = rho(system, case.q, case.n)
        if abs(r - want) > 1e-7 * max(1.0, np.linalg.norm(system, 2)):
            problems.append(f"sweep {case.name}: rho({alpha!r}) = {r!r}, quotient gives {want!r}")
    summary = [ln for ln in lines if ln.startswith("# min rho")]
    best = min(pairs, key=lambda p: p[1])
    if summary != [f"# min rho {best[1]!r} at alpha {best[0]!r}"]:
        problems.append(f"sweep {case.name}: summary {summary}")
    return problems


def rk4_matrix(system, h):
    """sum_{k<=4} (h Psi)^k / k!, the RK4 update of x' = Psi x."""
    term = np.eye(system.shape[0])
    R = term.copy()
    for k in range(1, 5):
        term = term @ (h * system) / k
        R = R + term
    return R


def sync_error(x, q, n):
    X = x.reshape(q, n)
    d = X[:, None, :] - X[None, :, :]
    return float(np.sqrt((d * d).sum(axis=2)).max()) if q > 1 else 0.0


def expected_trace(case, gains, epsilon, x0, steps, h):
    """Step the closed loop independently.

    Returns (the last state the simulator keeps, the steps it computes,
    whether it crosses the divergence cap).
    """
    if case.domain == "continuous":
        R = rk4_matrix(closed_loop_matrix(case, gains), h)
    else:
        R = closed_loop_matrix(case, gains, epsilon)
    cap_sq = (BOUND_CAP_FACTOR * max(np.linalg.norm(x0), 1e-300)) ** 2
    x = prev = x0.copy()
    for k in range(1, steps + 1):
        x = R @ x
        if not np.isfinite(x).all() or float(x @ x) > cap_sq:
            return prev, k, True
        prev = x
    return x, steps, False


def verdict(case, x0, x_end):
    s0, s_end = sync_error(x0, case.q, case.n), sync_error(x_end, case.q, case.n)
    if s_end <= SYNC_ABS_FLOOR * max(float(np.linalg.norm(x0)), 1e-300):
        return {"converged"}
    ratio = s_end / max(s0, 1e-12)
    for edge, below, above in ((CONVERGED_RATIO, "converged", "inconclusive"),
                               (DIVERGED_RATIO, "inconclusive", "diverged")):
        if abs(ratio / edge - 1.0) < 1e-6:
            return {below, above}  # too close to a band edge to call
    if ratio <= CONVERGED_RATIO:
        return {"converged"}
    return {"diverged"} if ratio >= DIVERGED_RATIO else {"inconclusive"}


def check_simulate(case, op, rc, data, gains_text, x0, steps, h):
    """`simulate`: exit code, verdict, row count, first and last states.

    `data` is the trace file's bytes; only the lines checked are decoded, so
    the oracle holds far less memory than the simulator did.  Returns the
    problems and the number of steps the integrator computed.
    """
    if rc != op.expect_rc:
        return [f"simulate {case.name}: exit {rc}, expected {op.expect_rc}"], 0
    scalars, gains = parse_gains(gains_text)
    eps = scalars.get("epsilon", scalars.get("eps_bar"))
    eps = float(eps) if eps is not None else None
    x_end, k, diverged = expected_trace(case, gains, eps, x0, steps, h)
    # header line, data rows, verdict line; each ends in a newline
    rows = data.count(b"\n") - 2
    first_at = data.index(b"\n") + 1
    verdict_at = data.rindex(b"\n", 0, len(data) - 1) + 1
    last_at = data.rindex(b"\n", 0, verdict_at - 1) + 1
    first = data[first_at:data.index(b"\n", first_at)].decode()
    last = data[last_at:verdict_at - 1].decode()
    verdict_line = data[verdict_at:].decode().rstrip("\n")

    points = k if diverged else steps + 1  # state rows the simulator kept
    stride = max(1, -(-points // MAX_TRACE_ROWS))
    want_rows = len(range(0, points, stride)) + (1 if (points - 1) % stride else 0)
    problems = []
    if rows != want_rows:
        problems.append(f"simulate {case.name}: {rows} rows, expected {want_rows}")
    qn = case.q * case.n
    first = np.array([float(v) for v in first.split(",")[1:qn + 1]])
    last = np.array([float(v) for v in last.split(",")[1:qn + 1]])
    if not np.array_equal(first, x0):
        problems.append(f"simulate {case.name}: first row is not x0")
    scale = max(np.abs(x_end).max(), np.abs(x0).max())
    if np.abs(last - x_end).max() > 1e-7 * scale:
        problems.append(f"simulate {case.name}: last state off by {np.abs(last - x_end).max():.3g}")
    got = verdict_line.removeprefix("# verdict ")
    want = {"diverged"} if diverged else verdict(case, x0, x_end)
    if not verdict_line.startswith("# verdict ") or got not in want:
        problems.append(f"simulate {case.name}: verdict {got!r}, expected one of {sorted(want)}")
    return problems, k
