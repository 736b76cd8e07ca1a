"""Independent slow-path reference implementations used as test oracles.

Everything here is written directly from the defining formulas with explicit
per-risk-set loops and no shared code with the package. Deliberately O(n^2)
or worse; only run on small inputs.
"""

import numpy as np
from scipy.optimize import minimize


def ref_loglik(beta, time, event, x, w):
    """Breslow-ties log partial likelihood via an explicit risk-set loop."""
    beta = np.asarray(beta, dtype=float)
    eta = x @ beta
    total = 0.0
    for i in range(len(time)):
        if not event[i]:
            continue
        at_risk = time >= time[i]
        total += w[i] * (eta[i] - np.log(np.sum(w[at_risk] * np.exp(eta[at_risk]))))
    return total


def ref_score(beta, time, event, x, w):
    eta = x @ beta
    r = w * np.exp(eta)
    score = np.zeros(x.shape[1])
    for i in range(len(time)):
        if not event[i]:
            continue
        at_risk = time >= time[i]
        xbar = (r[at_risk] @ x[at_risk]) / r[at_risk].sum()
        score += w[i] * (x[i] - xbar)
    return score


def ref_information(beta, time, event, x, w):
    eta = x @ beta
    r = w * np.exp(eta)
    p = x.shape[1]
    info = np.zeros((p, p))
    for i in range(len(time)):
        if not event[i]:
            continue
        at_risk = time >= time[i]
        s0 = r[at_risk].sum()
        xbar = (r[at_risk] @ x[at_risk]) / s0
        s2 = (r[at_risk, None, None] * x[at_risk, :, None] * x[at_risk, None, :]).sum(axis=0)
        info += w[i] * (s2 / s0 - np.outer(xbar, xbar))
    return info


def ref_sweep(beta, time, event, x, w):
    """Log partial likelihood, score and information by full reverse cumsums.

    The risk-set sums are reverse cumulative sums of r, r x and the (n, p, p)
    outer products r x x' over every record sorted by time, read off at each
    event's first record at risk. Linear rather than quadratic in n, so it
    checks the fitter on cohort-sized blocks where the loops above are slow.
    """
    beta = np.asarray(beta, dtype=float)
    order = np.lexsort((np.arange(len(time)), event, time))
    time, event, x, w = time[order], event[order], x[order], w[order]
    ev = np.flatnonzero(event)
    first = np.searchsorted(time, time[ev], side="left")
    eta = x @ beta
    shift = eta.max(initial=0.0)
    r = w * np.exp(eta - shift)
    s0 = np.cumsum(r[::-1])[::-1][first]
    s1 = np.cumsum((r[:, None] * x)[::-1], axis=0)[::-1][first]
    s2 = np.cumsum((r[:, None, None] * x[:, :, None] * x[:, None, :])[::-1], axis=0)[::-1][first]
    xbar = s1 / s0[:, None]
    loglik = float(w[ev] @ eta[ev] - w[ev] @ (np.log(s0) + shift))
    score = (x[ev] - xbar).T @ w[ev]
    info = np.einsum("e,eij->ij", w[ev] / s0, s2) - np.einsum("e,ei,ej->ij", w[ev], xbar, xbar)
    return loglik, score, info


def ref_fit(time, event, x, w=None, beta_range=3.0, grid_points=25):
    """Maximize the partial likelihood by coarse grid search then polish.

    Independent of any Newton implementation: the best grid point seeds a
    derivative-free Nelder-Mead refinement followed by a BFGS cleanup with
    numerical gradients.
    """
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=bool)
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if w is None:
        w = np.ones(len(time))
    w = np.asarray(w, dtype=float)
    p = x.shape[1]

    axes = [np.linspace(-beta_range, beta_range, grid_points)] * p
    best, best_ll = None, -np.inf
    for point in np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, p):
        ll = ref_loglik(point, time, event, x, w)
        if ll > best_ll:
            best, best_ll = point, ll

    neg = lambda b: -ref_loglik(b, time, event, x, w)
    stage1 = minimize(neg, best, method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
    stage2 = minimize(neg, stage1.x, method="BFGS", options={"gtol": 1e-12})
    return stage2.x if stage2.fun <= stage1.fun else stage1.x


def ref_dfbeta_loo(time, event, x, w, fit_fn, full_beta):
    """Exact leave-one-out coefficient changes, one refit per record."""
    n = len(time)
    out = np.zeros((n, np.atleast_2d(x.T).shape[0]))
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        keep[i] = False
        out[i] = full_beta - fit_fn(time[keep], event[keep], x[keep], w[keep])
        keep[i] = True
    return out


def ref_score_terms(beta, time, event, x, w):
    """Per-record decomposition w_i L_i of the score, by explicit loops.

    L_i adds the record's own deviation at its event to minus its exposure
    to each earlier-or-equal event's weighted baseline hazard increment.
    Summing rows over i recovers ref_score at any beta.
    """
    beta = np.asarray(beta, dtype=float)
    eta = x @ beta
    r = w * np.exp(eta)
    n, p = x.shape
    terms = np.zeros((n, p))
    ev = [i for i in range(n) if event[i]]
    for i in range(n):
        acc = np.zeros(p)
        for e in ev:
            if time[e] > time[i]:
                continue
            at_risk = time >= time[e]
            s0 = r[at_risk].sum()
            xbar = (r[at_risk] @ x[at_risk]) / s0
            acc -= np.exp(eta[i]) * (w[e] / s0) * (x[i] - xbar)
        if event[i]:
            at_risk = time >= time[i]
            xbar_i = (r[at_risk] @ x[at_risk]) / r[at_risk].sum()
            acc += x[i] - xbar_i
        terms[i] = w[i] * acc
    return terms


def ref_raking_lambda(selected, pi, aux, span=2.0, grid_points=25):
    """Multiplier of the exponential weight calibration, by direct search.

    Minimizes the convex dual of the raking distance over a coarse grid of
    multiplier vectors and polishes the best point with Nelder-Mead. Written
    against the objective only, with no derivative code shared with the
    implementation under test.
    """
    from itertools import product

    from scipy.optimize import minimize

    a_sel = aux[selected]
    base = 1.0 / pi[selected]
    totals = aux.sum(axis=0)

    def dual(lam):
        lam = np.asarray(lam, dtype=float)
        with np.errstate(over="ignore"):
            return float(base @ np.exp(-(a_sel @ lam))) + float(lam @ totals)

    axis = np.linspace(-span, span, grid_points)
    best = min(
        (np.array(point) for point in product(*[axis] * aux.shape[1])), key=dual
    )
    result = minimize(
        dual,
        best,
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 50000, "maxfev": 50000},
    )
    return result.x
