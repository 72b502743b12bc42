"""Exact-arithmetic modular-unit bases and cuspidal divisor class groups
of X_1(N).

Public surface: unit products and cusp divisors (`siegel`), explicit bases
(`basis`), exact class numbers by two independent routes and group
structure (`classgroup`), q-expansions (`qexpansion`), exact integer
linear algebra (`zlinalg`), and number-theoretic plumbing (`numtheory`).

`modunits.basis` is the function, bound over the submodule's name, so a
test that patches the module reaches it through
`importlib.import_module("modunits.basis")`.
"""

__version__ = "0.1.0"

from .basis import BasisElement, basis
from .classgroup import (
    ClassGroupReport,
    ConjectureReport,
    ConsistencyError,
    GroupStructure,
    analyze,
    class_number_lattice,
    class_number_yu,
    conjecture_report,
    divisor_matrix,
    generators,
    is_principal,
    p_primary,
    structure,
)
from .qexpansion import QSeries, expand_product, expand_unit
from .siegel import CuspDivisor, LevelContext, UnitProduct, divisor, genus_x1

__all__ = [
    "__version__",
    "BasisElement",
    "basis",
    "ClassGroupReport",
    "ConjectureReport",
    "ConsistencyError",
    "GroupStructure",
    "analyze",
    "class_number_lattice",
    "class_number_yu",
    "conjecture_report",
    "divisor_matrix",
    "generators",
    "is_principal",
    "p_primary",
    "structure",
    "QSeries",
    "expand_product",
    "expand_unit",
    "CuspDivisor",
    "LevelContext",
    "UnitProduct",
    "divisor",
    "genus_x1",
]
