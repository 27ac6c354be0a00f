"""The three random-matrix families.

A matrix belongs to one of three families that differ only in which entries
are pinned to 1 ("fixed") and which are drawn at random ("variable"):

* family A: every entry is variable;
* family B: the diagonal is pinned to 1 except the entry at (0, 0), which is
  variable along with every off-diagonal entry;
* family C: the whole diagonal is pinned to 1, only off-diagonal entries are
  variable.

This module imports only ``enum``, so every command can name a family
without loading the matrix type or the permanent kernels.
"""

from enum import Enum


class Family(Enum):
    """The three families of random 0/1 matrices."""

    A = "A"
    B = "B"
    C = "C"

    @property
    def target_permanent(self) -> int:
        """Permanent value whose probability this family is studied at."""
        return 1 if self is Family.C else 0

    def is_variable(self, i: int, j: int) -> bool:
        """True when entry (i, j) is drawn at random rather than pinned to 1."""
        if i != j:
            return True
        return self is Family.A or (self is Family.B and i == 0)

    def variable_count(self, n: int) -> int:
        """Number K of variable entries of an n x n matrix of this family."""
        if self is Family.A:
            return n * n
        if self is Family.B:
            return n * n - n + 1
        return n * n - n
