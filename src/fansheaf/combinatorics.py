"""Combinatorial predictions for stalk generator degrees.

The face lattice alone determines the generator degrees of the minimal
complex at each cone.  Accumulating over proper faces gives a lattice
polynomial h; its truncated difference polynomial g predicts g_i
generators in degree -n + 2i for each cone.  The recursion is purely
combinatorial (integer polynomial arithmetic over the face poset), so it
shares nothing with the module-theoretic builder and serves as an
independent oracle for it.
"""

from math import comb

from fansheaf.errors import InputError


def _shifted_binomial(m):
    """Coefficients of (t - 1)^m."""
    return [comb(m, i) * (-1) ** (m - i) for i in range(m + 1)]


def _accumulate(fan, cone_ids, top, cache):
    """Sum of g(c) (t - 1)^(top - dim c) over the listed cones, trailing
    zeros stripped."""
    acc = [0] * (top + 1)
    for c in cone_ids:
        shift = _shifted_binomial(top - fan.cones[c].dim)
        for i, a in enumerate(g_vector(fan, c, cache)):
            for j, b in enumerate(shift):
                acc[i + j] += a * b
    while acc and acc[-1] == 0:
        acc.pop()
    return tuple(acc)


def _degrees(n, coeffs, problem):
    """c_i copies of degree -n + 2i for each coefficient c_i; a negative
    coefficient raises InputError with the message `problem`."""
    if any(c < 0 for c in coeffs):
        raise InputError(problem)
    return tuple(-n + 2 * i for i, c in enumerate(coeffs) for _ in range(c))


def h_vector(fan, cone_id, _cache=None):
    """Lattice polynomial of a cone, accumulated over its proper faces."""
    if _cache is None:
        _cache = {}
    cone = fan.cones[cone_id]
    if cone.dim == 0:
        return (1,)
    faces = [f for f in cone.face_ids if f != cone_id]
    return _accumulate(fan, faces, cone.dim - 1, _cache)


def g_vector(fan, cone_id, _cache=None):
    """Truncated difference polynomial of the cone's lattice polynomial."""
    if _cache is None:
        _cache = {}
    if cone_id in _cache:
        return _cache[cone_id]
    cone = fan.cones[cone_id]
    k = cone.dim
    if k == 0:
        out = (1,)
    else:
        h = h_vector(fan, cone_id, _cache)
        half = (k - 1) // 2
        out = []
        prev = 0
        for i in range(half + 1):
            cur = h[i] if i < len(h) else 0
            out.append(cur - prev)
            prev = cur
        while out and out[-1] == 0:
            out.pop()
        out = tuple(out)
    _cache[cone_id] = out
    return out


def predicted_stalk_degrees(fan, cone_id, _cache=None):
    """Generator degrees the minimal complex must show at this cone."""
    g = g_vector(fan, cone_id, _cache)
    return _degrees(
        fan.n,
        g,
        f"cone {cone_id}: difference polynomial {g} has negative entries",
    )


def predicted_stalks(fan):
    """Predicted stalk degrees for every cone, one shared cache."""
    cache = {}
    return {
        c.index: predicted_stalk_degrees(fan, c.index, cache)
        for c in fan.cones
    }


def complete_fan_h_vector(fan):
    """Lattice polynomial accumulated over every cone of the fan.

    For complete fans this predicts the generator degrees of the top
    cohomology module: h_i generators in degree -n + 2i.  The vector is
    palindromic for complete fans, which the tests exploit as an extra
    consistency check.
    """
    return _accumulate(fan, range(len(fan.cones)), fan.n, {})


def predicted_ih_degrees(fan):
    """Generator degrees the top cohomology must show, for complete fans."""
    h = complete_fan_h_vector(fan)
    return _degrees(
        fan.n, h, f"accumulated polynomial {h} has negative entries"
    )
