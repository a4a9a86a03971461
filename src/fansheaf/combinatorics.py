"""Combinatorial predictions for stalk generator degrees.

The face lattice alone determines the generator degrees of every shifted
minimal complex.  For the complex based at a cone σ, each cone τ of the
star of σ carries the interval [σ, τ] of the face poset, and Stanley's
toric g of that interval predicts g_i generators in degree
-n + dim σ - shift + 2i at τ.  One bottom-up pass over the star fills
the table: h([σ, τ]) accumulates g([σ, ρ]) (t - 1)^(dim τ - dim ρ - 1)
over the faces σ ≤ ρ < τ, and g([σ, τ]) is its truncated difference.
The pass is integer polynomial arithmetic over the face poset, so it
shares nothing with the module-theoretic builder and serves as an
independent oracle for it.
"""

from math import comb

from fansheaf.errors import InputError


def _accumulate(fan, table, cone_ids, top):
    """Sum of g(c) (t - 1)^(top - dim c) over the listed cones of the
    table, trailing zeros stripped."""
    acc = [0] * (top + 1)
    for c in cone_ids:
        m = top - fan.cones[c].dim
        for i, a in enumerate(table[c][1]):
            for j in range(m + 1):
                acc[i + j] += a * comb(m, j) * (-1) ** (m - j)
    while acc and acc[-1] == 0:
        acc.pop()
    return tuple(acc)


def interval_table(fan, base=0):
    """(h, g) of the interval [base, τ] for every cone τ in the star of
    the base cone.

    Cone ids ascend with dimension, so the faces of τ that contain the
    base are in the table before τ.
    """
    table = {base: ((1,), (1,))}
    for tau in fan.star(base)[1:]:
        cone = fan.cones[tau]
        faces = [f for f in cone.face_ids if f in table]
        h = _accumulate(fan, table, faces, cone.dim - 1)
        half = (cone.dim - fan.cones[base].dim - 1) // 2
        g = [b - a for a, b in zip((0,) + h, h + (0,))][: half + 1]
        while g and g[-1] == 0:
            g.pop()
        table[tau] = (h, tuple(g))
    return table


def _degrees(low, coeffs, problem):
    """c_i copies of degree low + 2i for each coefficient c_i; a negative
    coefficient raises InputError with the message `problem`."""
    if any(c < 0 for c in coeffs):
        raise InputError(problem)
    return tuple(low + 2 * i for i, c in enumerate(coeffs) for _ in range(c))


def predicted_stalks(fan, base=0, shift=0):
    """Generator degrees the minimal complex based at the base cone and
    twisted by the shift must show, for every cone of the base's star."""
    low = -fan.n + fan.cones[base].dim - shift
    return {
        tau: _degrees(
            low,
            g,
            f"cone {tau}: difference polynomial {g} has negative entries",
        )
        for tau, (_, g) in interval_table(fan, base).items()
    }


def complete_fan_h_vector(fan):
    """Lattice polynomial accumulated over every cone of the fan.

    For complete fans this predicts the generator degrees of the top
    cohomology module: h_i generators in degree -n + 2i.  The vector is
    palindromic for complete fans, which the tests exploit as an extra
    consistency check.
    """
    table = interval_table(fan)
    return _accumulate(fan, table, table, fan.n)


def predicted_ih_degrees(fan):
    """Generator degrees the top cohomology must show, for complete fans."""
    h = complete_fan_h_vector(fan)
    return _degrees(
        -fan.n, h, f"accumulated polynomial {h} has negative entries"
    )
