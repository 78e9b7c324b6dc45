"""prosep: dynamic tomography via a projection-domain partially separable model.

Reconstructs a time-varying 2D object from time-sequential projections
(one view angle per time instant) by fitting a bilinear model to the
circular-harmonic expansion of the projections, and provides the
accompanying stability analysis: sampling-scheme condition numbers,
full-rank checks, projection energy bounds, and motion truncation
bounds.
"""

__version__ = "0.1.0"
