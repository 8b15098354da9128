"""Idempotent commutative quasigroups of odd order.

The ingredient of Bose's Steiner-triple-system construction (paper
Theorem 2).  For odd order q the standard example is::

    a_i o a_j = ((i + j) * (q + 1) / 2)  mod q

which is idempotent (a o a = a), commutative, and a quasigroup (each
element appears exactly once in every row and column of the
multiplication table).
"""

from typing import List


class IdempotentCommutativeQuasigroup:
    """``(Q, o)`` with Q = {0, .., order-1}, order odd."""

    def __init__(self, order: int):
        if order < 1 or order % 2 == 0:
            raise ValueError(
                f"idempotent commutative quasigroups of this form require "
                f"odd order, got {order}"
            )
        self.order = order
        self._half = (order + 1) // 2  # multiplicative inverse of 2 mod q

    def op(self, i: int, j: int) -> int:
        """``a_i o a_j``."""
        if not (0 <= i < self.order and 0 <= j < self.order):
            raise ValueError(f"elements ({i}, {j}) out of range "
                             f"[0, {self.order})")
        return ((i + j) * self._half) % self.order

    def table(self) -> List[List[int]]:
        """The full multiplication table (order x order)."""
        return [
            [self.op(i, j) for j in range(self.order)]
            for i in range(self.order)]

    # -- property checks (used by tests and by validation at build time) --
    def is_idempotent(self) -> bool:
        return all(self.op(i, i) == i for i in range(self.order))

    def is_commutative(self) -> bool:
        return all(self.op(i, j) == self.op(j, i)
                   for i in range(self.order) for j in range(i, self.order))

    def is_quasigroup(self) -> bool:
        full = set(range(self.order))
        for i in range(self.order):
            if {self.op(i, j) for j in range(self.order)} != full:
                return False
            if {self.op(j, i) for j in range(self.order)} != full:
                return False
        return True

    def __repr__(self) -> str:
        return f"IdempotentCommutativeQuasigroup(order={self.order})"
