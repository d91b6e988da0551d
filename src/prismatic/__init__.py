"""prismatic: computational structure theory of complementary prisms.

The complementary prism of a graph G glues G and its complement along a
perfect matching.  This package constructs the graphs the theory revolves
around, computes their automorphisms, antimorphisms, homomorphisms, cores,
spectra, Cheeger numbers and Hamiltonian witnesses, and cross-checks every
structural shortcut against an independent brute-force oracle.
"""
