"""Shared helpers for the test suite."""

import numpy as np

from megmc.sideinfo import Graph, LinearKernel, MinKernel, box_transform, min_kernel_eval


def path_graph(n, w=1.0):
    return Graph(n_vertices=n, edges=tuple((i, i + 1, w) for i in range(n - 1)))


def scalar_gram(kernel, points):
    """Gram of a package kernel built entry by entry from its scalar definition.

    Min kernel: min_kernel_eval on box-transformed points. Linear kernel:
    x @ t + epsilon [a == b] over list positions a, b. Precomputed kernel:
    gram[i, j]. Independent of the kernels' own Gram code.
    """
    if isinstance(kernel, MinKernel):
        def entry(a, b, x, t):
            return min_kernel_eval(box_transform(np.atleast_1d(x), kernel.radius),
                                   box_transform(np.atleast_1d(t), kernel.radius))
    elif isinstance(kernel, LinearKernel):
        def entry(a, b, x, t):
            return float(np.atleast_1d(x) @ np.atleast_1d(t)) + kernel.epsilon * (a == b)
    else:
        def entry(a, b, x, t):
            return float(kernel.gram[x, t])
    q = len(points)
    return np.array([[entry(a, b, points[a], points[b]) for b in range(q)]
                     for a in range(q)])
