"""compalg: exact algebra for tower-constrained polynomial subrings and
monoid domains, plus the toy ciphers built on those structures.

Everything is desk-scale and oracle-grade: brute-force searches back
every criterion, all values are immutable, and all randomness threads
through explicit seeds.

The names below are loaded from their submodule on first use (PEP 562),
so ``import compalg`` and each CLI call import only what they touch.
"""

import importlib
import sys


def _lazy_exports(package: str, exports: dict[str, str]):
    """PEP 562 ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each submodule to the space-separated names it
    exports. A name is imported from its submodule on first access and
    then bound on the package; each listed submodule is an attribute too.
    """
    owner = {name: sub for sub, names in exports.items() for name in names.split()}

    def __getattr__(name: str):
        if name in exports:
            return importlib.import_module(f"{package}.{name}")
        sub = owner.get(name)
        if sub is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{sub}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(vars(sys.modules[package]).keys() | owner.keys() | exports.keys())

    return __getattr__, __dir__


_EXPORTS = {
    "arith": "is_prime is_primitive_root",
    "rings": "ExtensionField Integers IntegersMod PrimeField Ring RingElement "
             "default_extension_field embed has_embedding",
    "poly": "Factorization Polynomial all_polynomials irreducible_monic_polynomials "
            "monic_polynomials search_inverse",
    "composite": "CompositeElement DivisorChain Tower atomize contains divisor_chain "
                 "has_nontrivial_factorization",
    "monoid_domain": "IrreducibleCertificate MonoidElement NumericalMonoid build_irreducible "
                     "is_irreducible_by_search",
    "ideals": "PrincipalIdeal ideal inverse_ideal reduce_ideal totient_ideal",
    "alphabet": "Alphabet decode encode seeded_lifts upper_latin",
    "errors": "CeilingError CompalgError EmbeddingError FormatError MembershipError "
              "NotAUnitError ParameterError RingMismatchError",
}

# the submodules are public names too: ``from compalg import *`` binds them
__all__ = [*_EXPORTS, *(name for names in _EXPORTS.values() for name in names.split())]
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__version__ = "0.1.0"
