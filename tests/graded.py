"""Shared test helper: the grade of a homogeneous sparse matrix."""


def homogeneous_grade(matrix):
    """Grade of a homogeneous matrix, read from its ``_components()``; None
    for zero (which has every grade).  A matrix with components of two or
    more grades raises ValueError."""
    comps = matrix._components()
    if not comps:
        return None
    if len(comps) > 1:
        raise ValueError("matrix is not homogeneous")
    return comps[0][0]
