"""Closed-form quantization of the Milson and Gendenshtein potential family,
with Romanovski-Routh polynomial machinery, Darboux partners, and an
independent finite-difference verification oracle.

Import the submodules themselves (``rrspectra.spectral``, ``rrspectra.routh``,
...): the package imports none of them, so the exact layer (``spectral``,
``routh``) loads without numpy."""

# The oracle's eigenvalue backend: a numpy sine-basis Rayleigh-Ritz solve
# certified by Sturm counts.
KERNEL_BACKEND = "numpy"

__version__ = "0.1.0"
