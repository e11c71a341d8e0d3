"""Test-only statement of the tolerant comparison rule, one pair of numbers at a time.

These are the scalar ``leq``/``lt`` that ``garpkit.model`` held next to
``leq_array``/``lt_array`` while both forms existed.  The array forms are
now the only rule in the library; the tests check them, and the reference
verifiers decide budget membership, against this plain statement.
"""

from __future__ import annotations


def leq(lhs, rhs, rel_tol: float = 0.0) -> bool:
    """Tolerant ``lhs <= rhs``; exact at ``rel_tol == 0``."""
    if rel_tol == 0.0:
        return lhs <= rhs
    return lhs <= rhs + rel_tol * max(abs(lhs), abs(rhs))


def lt(lhs, rhs, rel_tol: float = 0.0) -> bool:
    """Tolerant ``lhs < rhs``; the strict counterpart of :func:`leq`."""
    if rel_tol == 0.0:
        return lhs < rhs
    return lhs < rhs - rel_tol * max(abs(lhs), abs(rhs))
