"""Desk-scale CASSI toolkit: sensing simulation, unfolded SSM reconstruction,
masked training, and oracle-checked numerics."""

__version__ = "0.1.0"
