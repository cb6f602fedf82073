"""Two-time single-particle CHSH toolkit.

Submodules:

- ``quantum``     closed-form measurement statistics (joint, marginal, conditional)
- ``montecarlo``  seeded detection-chain simulation with efficiencies
- ``lhv``         factorized / general hidden-variable models and checks
- ``chsh``        CHSH expression, angle ladder, detection threshold
- ``polytope``    local-polytope membership certificates
- ``model_io``    text format for finite hidden-variable models
- ``cli``         deterministic command-line front end
"""

__version__ = "0.1.0"
