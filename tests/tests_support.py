"""Shared helpers for the test suite."""

from megmc.sideinfo import Graph


def path_graph(n, w=1.0):
    return Graph(n_vertices=n, edges=tuple((i, i + 1, w) for i in range(n - 1)))

