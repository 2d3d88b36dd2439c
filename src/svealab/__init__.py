"""Envelope-reduction laboratory.

A catalog of exact solutions for four nonlinear field equations and their
slowly-varying-envelope reductions, finite-difference residual verification,
the quench mapping between the two solution families, a split-step spectral
propagator for the envelope equations, and post-processing for breather
counting and the amplitude-width stability line.
"""

__version__ = "0.1.0"
