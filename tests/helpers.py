"""Shared test helpers."""


def as_matrix(op):
    """The N x N matrix of an operator, formed as L R^dag when it holds factors."""
    return op.matrix()
