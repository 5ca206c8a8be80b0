"""Defect sequences of row-contractive operator tuples.

The package computes defect operators and defect dimensions of matrix
tuples and their powers, classifies tuples structurally (purity of the
attached completely positive map, growth extremality against the free
and commuting bounds, commutant and irreducibility), constructs the
standard model tuples on truncated word and monomial spaces, and
verifies the structural laws on exact fixtures and seeded random
ensembles.  The ``defectseq`` command exposes the same machinery from
the shell with deterministic JSON reports.
"""

from . import (
    classify,
    config,
    defect,
    errors,
    io,
    linalg,
    models,
    suites,
    tuples,
)

# Every name in these modules' ``__all__`` is exported, except the
# suites' sampling defaults, which stay in defectseq.suites.  The name
# ``classify`` becomes the function, as it comes after the module here.
_PUBLIC = {
    name: getattr(module, name)
    for module in (config, errors, linalg, tuples, defect, classify, models,
                   io, suites)
    for name in module.__all__
    if name not in ("DEFAULT_SAMPLES", "DEFAULT_SEED")
}
globals().update(_PUBLIC)
__all__ = sorted(_PUBLIC)
__version__ = config.VERSION
del _PUBLIC
