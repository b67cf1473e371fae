"""Independent reference implementations used by the tests.

Nothing here calls into fcshmc's production kernels: matrices are assembled
dense from their definitions, gradients come from central differences, and
quadratures from brute-force refinement, so agreement is evidence rather
than tautology.  The tridiagonal loops convert the bands and factor the
matrix afresh on every call, in the arithmetic order the production kernels
keep while reusing per-operator lists and factorizations.  The reflection
sweep is the per-node loop: one scalar uniform, the ratio of the current
state and, on accept, one slice negation per node; the production sweep
must match it bit for bit.  The likelihood gradient is the per-window loop:
each window's profile, sum and force, accumulated into a zeroed list.  The
prior gradient and the two energies are the per-index loops that read both
ends of every link from the state on every step.  All four rebuild their
constants from the parameters on every call.
"""

import math

import numpy as np


def tridiag_matvec(op, v):
    """y = op @ v by the loop, converting the bands on every call."""
    v = np.asarray(v, dtype=float)
    n = op.size
    if n == 1:
        return np.array([op.diag[0] * v[0]])
    a, b, c, x = op.off.tolist(), op.diag.tolist(), op.off.tolist(), v.tolist()
    y = [0.0] * n
    y[0] = b[0] * x[0] + c[0] * x[1]
    for i in range(1, n - 1):
        y[i] = a[i - 1] * x[i - 1] + b[i] * x[i] + c[i] * x[i + 1]
    y[n - 1] = a[n - 2] * x[n - 2] + b[n - 1] * x[n - 1]
    return np.array(y)


def thomas_solve(op, rhs):
    """Thomas algorithm that factors op afresh on every call; raises
    ZeroDivisionError on a zero pivot."""
    rhs = np.asarray(rhs, dtype=float)
    n = op.size
    a, b, c, d = op.off.tolist(), op.diag.tolist(), op.off.tolist(), rhs.tolist()
    cp = [0.0] * n  # eliminated superdiagonal
    dp = [0.0] * n  # eliminated rhs
    piv = b[0]
    cp[0] = c[0] / piv if n > 1 else 0.0
    dp[0] = d[0] / piv
    for i in range(1, n):
        piv = b[i] - a[i - 1] * cp[i - 1]
        if i < n - 1:
            cp[i] = c[i] / piv
        dp[i] = (d[i] - a[i - 1] * dp[i - 1]) / piv
    x = [0.0] * n
    x[n - 1] = dp[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return np.array(x)


def reflection_sweep(q, problem, stream):
    """Reflection sweep, in place: one head/tail draw, then per node in mesh
    order one scalar uniform, the localized ratio of the current state, and
    an O(M) slice negation on accept.  Returns (q, accepted flips)."""
    p = problem.params
    tau = _link_taus(p)
    head = stream.uniform() < 0.5
    accepted = 0
    inv_d = 1.0 / p.D
    for n in range(1, p.N + 1):
        for k in range(1, p.K + 1):
            pos = (n - 1) * (p.K + 1) + k + 1
            u = stream.uniform()
            log_r = 0.0 if pos == len(tau) else -q[pos] * q[pos + 1] * inv_d / tau[pos]
            if log_r >= 0.0 or u < math.exp(log_r):
                if head:
                    q[1 : pos + 1] = -q[1 : pos + 1]
                else:
                    q[pos + 1 :] = -q[pos + 1 :]
                accepted += 1
    return q, accepted


def grad_v_like(q, problem):
    """d V_like / d q by the per-window loop, constants read from the
    parameters on every call; the anchor entry stays +0.0."""
    p = problem.params
    xs = np.asarray(q, dtype=float).tolist()
    g = [0.0] * p.node_count
    if problem.counts is None:
        return np.array(g)
    w = [float(c) for c in problem.counts]
    inv2w, didx = 1.0 / (2.0 * p.omega), p.I_ref / p.omega
    tau, kk = p.tau_sub, p.K
    for n in range(p.N):
        base = 1 + n * (kk + 1)
        prof = [math.exp(-xs[j] * xs[j] * inv2w) for j in range(base, base + kk + 1)]
        # left to right, not by builtin sum (compensated from Python 3.12)
        interior = 0.0
        for e in prof[1:kk]:
            interior += e
        s = 0.5 * (prof[0] + prof[kk]) + interior
        u = tau * (kk * p.I_bg + p.I_ref * s)
        f = (1.0 - w[n] / u) * tau
        for k in range(kk + 1):
            c = 0.5 if (k == 0 or k == kk) else 1.0
            j = base + k
            g[j] += -f * c * didx * xs[j] * prof[k]
    return np.array(g)


def _link_taus(params):
    """Link durations by walking the mesh: each window's dead link, then K
    submesh links."""
    return [params.tau_dead if j % (params.K + 1) == 0 else params.tau_sub
            for j in range(params.node_count - 1)]


def grad_v_prior(q, problem):
    """-(1/2D) Lap q by the per-index loop over both neighbours of a node."""
    p = problem.params
    xs = np.asarray(q, dtype=float).tolist()
    m = p.node_count
    s = [1.0 / t for t in _link_taus(p)]
    c = 1.0 / (2.0 * p.D)
    g = [0.0] * m
    g[0] = c * s[0] * (xs[0] - xs[1])
    for j in range(1, m - 1):
        g[j] = c * (s[j - 1] * (xs[j] - xs[j - 1]) + s[j] * (xs[j] - xs[j + 1]))
    g[m - 1] = c * s[m - 2] * (xs[m - 1] - xs[m - 2])
    return np.array(g)


def v_prior(q, problem):
    """sum (dq)^2 / (4 D tau) by the per-link loop over both link ends."""
    p = problem.params
    x = np.asarray(q, dtype=float).tolist()
    coef = [1.0 / (4.0 * p.D * t) for t in _link_taus(p)]
    acc = 0.0
    for j in range(len(coef)):
        d = x[j + 1] - x[j]
        acc += coef[j] * d * d
    return acc


def v_like(q, problem):
    """sum_n [u_n - w_n log u_n] by the per-window, per-index loop."""
    if problem.counts is None:
        return 0.0
    p = problem.params
    x = np.asarray(q, dtype=float).tolist()
    inv2w = 1.0 / (2.0 * p.omega)
    w = [float(c) for c in problem.counts]
    acc = 0.0
    for n in range(p.N):
        base = 1 + n * (p.K + 1)
        xv = x[base]
        s = 0.5 * (p.I_bg + p.I_ref * math.exp(-xv * xv * inv2w))
        for j in range(base + 1, base + p.K):
            xv = x[j]
            s += p.I_bg + p.I_ref * math.exp(-xv * xv * inv2w)
        xv = x[base + p.K]
        s += 0.5 * (p.I_bg + p.I_ref * math.exp(-xv * xv * inv2w))
        u = p.tau_sub * s
        acc += u - w[n] * math.log(u)
    return acc


def central_diff_grad(f, q, scale=1e-6):
    """Central finite differences with per-coordinate step scale*(1+|q_i|)."""
    q = np.asarray(q, dtype=float)
    g = np.empty_like(q)
    for i in range(q.size):
        d = scale * (1.0 + abs(q[i]))
        hi, lo = q.copy(), q.copy()
        hi[i] += d
        lo[i] -= d
        g[i] = (f(hi) - f(lo)) / (2.0 * d)
    return g


def dense_two_scale_laplacian(n_windows, k_panels, tau_dead, tau_sub):
    """M x M tridiagonal pattern assembled entry by entry from the mesh:
    coupling 1/tau of each link on the off-diagonals, negative adjacent-sum
    diagonal.  Link j is a dead link iff j = 0 mod (K+1)."""
    m = n_windows * (k_panels + 1) + 1
    s0 = 1.0 / tau_dead
    s2 = 1.0 / tau_sub
    link = [s0 if j % (k_panels + 1) == 0 else s2 for j in range(m - 1)]
    a = np.zeros((m, m))
    for j, s in enumerate(link):
        a[j, j + 1] = s
        a[j + 1, j] = s
        a[j, j] -= s
        a[j + 1, j + 1] -= s
    return a


def dense_neumann_block(k_panels):
    """(K+1) x (K+1) unit-coupling path-graph Laplacian (Neumann ends)."""
    size = k_panels + 1
    b = np.zeros((size, size))
    for j in range(size - 1):
        b[j, j + 1] = b[j + 1, j] = 1.0
        b[j, j] -= 1.0
        b[j + 1, j + 1] -= 1.0
    return b


def node_times(params):
    """Elapsed physical time at each flat node, built by walking the mesh."""
    times = [0.0]
    for _ in range(params.N):
        times.append(times[-1] + params.tau_dead)
        for _ in range(params.K):
            times.append(times[-1] + params.tau_sub)
    return np.array(times)


def refined_window_integral(path, t_start, t_end, params, panels=10_000):
    """Reference trapezoid quadrature of I(path(t)) over one exposure window."""
    t = np.linspace(t_start, t_end, panels + 1)
    x = path(t)
    rate = params.I_bg + params.I_ref * np.exp(-x * x / (2.0 * params.omega))
    dt = (t_end - t_start) / panels
    return float(dt * (rate.sum() - 0.5 * (rate[0] + rate[-1])))


def canonical_form(n_active):
    """Skew form Omega on the 2 n_active dimensional active phase space."""
    eye = np.eye(n_active)
    zero = np.zeros((n_active, n_active))
    return np.block([[zero, eye], [-eye, zero]])


def phase_space_jacobian(map_fn, q0, p0, scale=1e-6):
    """FD Jacobian of a phase-space map restricted to the active (non-anchor)
    coordinates, ordered (q_1..q_{M-1}, p_1..p_{M-1})."""
    na = q0.size - 1

    def flat_map(z):
        q = np.concatenate(([0.0], z[:na]))
        p = np.concatenate(([0.0], z[na:]))
        out = map_fn(q, p)
        return np.concatenate((out[0][1:], out[1][1:]))

    z0 = np.concatenate((q0[1:], p0[1:]))
    jac = np.empty((2 * na, 2 * na))
    for i in range(2 * na):
        d = scale * (1.0 + abs(z0[i]))
        hi, lo = z0.copy(), z0.copy()
        hi[i] += d
        lo[i] -= d
        jac[:, i] = (flat_map(hi) - flat_map(lo)) / (2.0 * d)
    return jac
