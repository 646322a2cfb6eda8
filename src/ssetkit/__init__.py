"""ssetkit: exact computations on finite simplicial sets.

Simplicial and polynomial de Rham cohomology, barycentric subdivision with
its chain homotopy, presheaves on finite sites with sheafification, Kan
horn filling and fibration certificates, connection extension, and
Chern-Weil forms, all in exact rational arithmetic (one numeric operator,
clearly flagged).
"""

__version__ = "0.1.0"
