"""Closed-form quantization of the Milson and Gendenshtein potential family,
with Romanovski-Routh polynomial machinery, Darboux partners, and an
independent finite-difference verification oracle.

Import the submodules themselves (``rrspectra.spectral``, ``rrspectra.routh``,
...): the package imports none of them.  No module loads numpy."""

# The oracle's eigenvalue backend, in plain Python: one iteration, Laguerre
# steps on the tridiagonal Hamiltonian with one end condition, transparent
# ends, and every level certified by Sturm counts.
KERNEL_BACKEND = "python"

__version__ = "0.1.0"
