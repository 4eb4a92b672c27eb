"""Independent oracles used by the tests.

Everything here is written the slow, obvious way (nested loops, direct
formulas) and never calls the library's fast paths, so a test comparing the
two routes actually checks something.
"""

import numpy as np


def direct_conv2d(x, w, b, stride, padding):
    """Cross-correlation by explicit nested loops over every output tap."""
    n, ci, h, wd = x.shape
    co, _, kh, kw = w.shape
    sh, sw = stride
    pt, pb, pl, pr = padding
    xp = np.zeros((n, ci, h + pt + pb, wd + pl + pr))
    xp[:, :, pt : pt + h, pl : pl + wd] = x
    oh = (h + pt + pb - kh) // sh + 1
    ow = (wd + pl + pr - kw) // sw + 1
    y = np.zeros((n, co, oh, ow))
    for nn in range(n):
        for o in range(co):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for c in range(ci):
                        for a in range(kh):
                            for bb in range(kw):
                                acc += xp[nn, c, i * sh + a, j * sw + bb] * w[o, c, a, bb]
                    y[nn, o, i, j] = acc + b[o]
    return y


def direct_tconv2d(x, w, b, stride, padding):
    """Transposed convolution by scatter-add of every input tap."""
    n, ci, h, wd = x.shape
    _, co, kh, kw = w.shape
    sh, sw = stride
    pt, pb, pl, pr = padding
    oh = (h - 1) * sh + kh - (pt + pb)
    ow = (wd - 1) * sw + kw - (pl + pr)
    y = np.zeros((n, co, oh, ow))
    for nn in range(n):
        for c in range(ci):
            for i in range(h):
                for j in range(wd):
                    for o in range(co):
                        for a in range(kh):
                            for bb in range(kw):
                                oi = i * sh + a - pt
                                oj = j * sw + bb - pl
                                if 0 <= oi < oh and 0 <= oj < ow:
                                    y[nn, o, oi, oj] += x[nn, c, i, j] * w[c, o, a, bb]
    for o in range(co):
        y[:, o] += b[o]
    return y


def direct_conv2d_grads(x, w, g, stride, padding):
    """Input and weight gradients of direct_conv2d for output gradient g: each
    output's gradient flows back to every input entry and weight tap it read."""
    n, ci, h, wd = x.shape
    co, _, kh, kw = w.shape
    sh, sw = stride
    pt, pb, pl, pr = padding
    xp = np.zeros((n, ci, h + pt + pb, wd + pl + pr))
    xp[:, :, pt : pt + h, pl : pl + wd] = x
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for nn in range(n):
        for o in range(co):
            for i in range(g.shape[2]):
                for j in range(g.shape[3]):
                    for c in range(ci):
                        for a in range(kh):
                            for bb in range(kw):
                                r, s = i * sh + a, j * sw + bb
                                gxp[nn, c, r, s] += g[nn, o, i, j] * w[o, c, a, bb]
                                gw[o, c, a, bb] += g[nn, o, i, j] * xp[nn, c, r, s]
    return gxp[:, :, pt : pt + h, pl : pl + wd], gw


def direct_pearson(a, b):
    """Correlation straight from the covariance / std-product definition."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    cov = np.mean((a - a.mean()) * (b - b.mean()))
    return cov / (a.std() * b.std())


def direct_bce(pred, target, clamp=1e-7):
    p = np.clip(np.asarray(pred, dtype=np.float64), clamp, 1 - clamp)
    t = np.asarray(target, dtype=np.float64)
    return float(np.mean(-(t * np.log(p) + (1 - t) * np.log(1 - p))))


def fd_loss_gradient(eval_loss, param_array, epsilon=1e-5):
    """Central differences of an arbitrary scalar callable w.r.t. one array.

    ``eval_loss`` is called with the (mutated-in-place) parameter; the array
    is restored after each probe.
    """
    flat = param_array.reshape(-1)
    grad = np.empty(flat.size)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + epsilon
        lp = eval_loss()
        flat[i] = orig - epsilon
        lm = eval_loss()
        flat[i] = orig
        grad[i] = (lp - lm) / (2.0 * epsilon)
    return grad.reshape(param_array.shape)


def max_rel_err(analytic, numeric):
    a = np.asarray(analytic).ravel()
    n = np.asarray(numeric).ravel()
    return float(np.max(np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)))


def loop_paint_strokes(rng, shape, n_strokes, thickness_range):
    """Random-walk strokes painted one step at a time, one draw per turn."""
    h, w = shape
    mask = np.zeros(shape, dtype=bool)
    for _ in range(n_strokes):
        y = rng.uniform(0, h)
        x = rng.uniform(0, w)
        angle = rng.uniform(0, 2 * np.pi)
        steps = int(rng.integers(h // 3, h))
        half = int(rng.integers(*thickness_range))
        for _ in range(steps):
            yi, xi = int(y), int(x)
            if 0 <= yi < h and 0 <= xi < w:
                mask[max(0, yi - half) : yi + half, max(0, xi - half) : xi + half] = True
            angle += rng.normal(0, 0.25)
            y += np.sin(angle)
            x += np.cos(angle)
    return mask


def whole_page_synthetic_page(rng, shape, kind):
    """One synthetic (page, mask) pair with every noise field drawn as one
    page-sized array, painted by ``loop_paint_strokes``, the page clipped to
    [0, 1] and quantized to the 8-bit levels ``round(255 * p)``."""
    from binadapt.data import _KINDS

    bg, ink, noise, ghost_level = _KINDS[kind]
    mask = loop_paint_strokes(rng, shape, int(rng.integers(8, 14)), (1, 3))
    page = np.full(shape, bg) + rng.normal(0, noise, shape)
    if ghost_level is not None:
        ghost = loop_paint_strokes(rng, shape, int(rng.integers(6, 12)), (1, 3))[:, ::-1]
        page[ghost] = ghost_level + rng.normal(0, noise, shape)[ghost]
    page[mask] = ink + rng.normal(0, noise, shape)[mask]
    return np.round(255 * np.clip(page, 0.0, 1.0)).astype(np.uint8), mask


def padded_split_patches(page, h, w):
    """Every h x w patch of a 2-D page in row-major order, as one
    ``[rows * cols, h, w]`` stack of its dtype: the page padded by edge
    replication up to whole patches, then cut by a reshape."""
    rows, cols = -(-page.shape[0] // h), -(-page.shape[1] // w)
    padded = np.pad(page, ((0, rows * h - page.shape[0]), (0, cols * w - page.shape[1])), mode="edge")
    return padded.reshape(rows, h, cols, w).transpose(0, 2, 1, 3).reshape(rows * cols, h, w)
