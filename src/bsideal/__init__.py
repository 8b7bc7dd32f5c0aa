"""Exact computations around Bernstein-Sato ideals of polynomial collections."""

from .solver import SolveBounds, find_bs_pair, verify
from .weyl import GermContext

__version__ = "0.1.0"
