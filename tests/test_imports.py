"""The lazy namespace: what an import or a CLI call loads, the PEP 562
exports of ``compalg`` and ``compalg.ciphers``, and a bytecode check that
every global a function reads exists.

Handlers and parsers import their modules inside the function body, so a
dropped import would otherwise surface only as a ``NameError`` on the
first call of that one path.
"""

import builtins
import dis
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import compalg
import compalg.ciphers

SRC = Path(compalg.__file__).resolve().parent

# every public name of each package, pinned: a name dropped from an
# ``_EXPORTS`` table fails here
PACKAGE_EXPORTS = {
    "compalg": {
        "arith": "is_prime is_primitive_root",
        "rings": "ExtensionField Integers IntegersMod PrimeField Ring RingElement "
                 "default_extension_field embed has_embedding",
        "poly": "Factorization Polynomial all_polynomials irreducible_monic_polynomials "
                "monic_polynomials search_inverse",
        "composite": "CompositeElement DivisorChain Tower atomize contains divisor_chain "
                     "has_nontrivial_factorization",
        "monoid_domain": "IrreducibleCertificate MonoidElement NumericalMonoid "
                         "build_irreducible is_irreducible_by_search",
        "ideals": "PrincipalIdeal ideal inverse_ideal reduce_ideal totient_ideal",
        "alphabet": "Alphabet decode encode seeded_lifts upper_latin",
        "errors": "CeilingError CompalgError EmbeddingError FormatError MembershipError "
                  "NotAUnitError ParameterError RingMismatchError",
    },
    "compalg.ciphers": {
        "rsa_ideal": "RsaIdealKey rsa_keygen rsa_encrypt rsa_decrypt",
        "diffie_hellman": "DhParams DhExchange dh_exchange",
        "fractional": "FractionalKey frac_encrypt frac_decrypt frac_decrypt_fast_path",
        "zone": "ZoneKey zone_encrypt zone_decrypt",
        "composite_cipher": "AffineCipher CipherPolynomial CipherText cipher_product "
                            "cipher_sum composite_cipher_keygen composite_cipher_encrypt "
                            "composite_cipher_decrypt parse_cipher parse_cipher_polynomial "
                            "random_affine_polynomial",
        "monoid_cipher": "MonoidCipherKey monoid_keygen monoid_encrypt monoid_decrypt "
                         "discrete_log_bsgs discrete_log_exhaustive",
    },
}

# what ``from PACKAGE import *`` bound: compalg had no __all__, so its
# submodules were star-exported too
STAR_NAMES = {
    package: {name for names in exports.values() for name in names.split()}
    for package, exports in PACKAGE_EXPORTS.items()
}
STAR_NAMES["compalg"] |= set(PACKAGE_EXPORTS["compalg"])


def _child(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )


def _loaded_by(statements: str) -> tuple[list[str], set[str]]:
    """Stdout lines of running the statements in a fresh interpreter, and
    the compalg modules loaded when they are done."""
    done = _child(
        f"{statements}\nimport sys\n"
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'compalg'))"
    )
    assert done.returncode == 0, done.stderr
    *lines, modules = done.stdout.splitlines()
    return lines, set(modules.split())


def test_import_compalg_loads_no_submodule():
    _, loaded = _loaded_by("import compalg")
    assert loaded == {"compalg"}


@pytest.mark.parametrize(
    "argv,stdout,unused",
    [
        (["poly", "irreducible", "F2:[1,1,1]"], ["true"],
         ["composite", "monoid_domain", "keyexchange", "ciphers"]),
        (["rsa", "keygen", "--p", "3", "--q", "11", "--e", "3"], ["N=(33) E=(3) D=(7)"],
         ["composite", "poly", "monoid_domain"]),
        # the integers of these calls are read by errors.read_int, which needs
        # neither textio nor the rings it loads
        (["zone", "decrypt", "--p", "29", "--q", "5", "--k", "3", "--pairs", "1:1 0:3"], ["7 1"],
         ["rings", "textio", "poly"]),
        (["compcipher", "decrypt", "--f", "poly[aff(1,1,26),aff(1,2,26)]",
          "--g", "poly[aff(1,0,26)]", "--cipher", "2 1 0 3 1"], ["0 1"],
         ["rings", "textio", "poly"]),
    ],
    ids=["poly-irreducible", "rsa-keygen", "zone-decrypt", "compcipher-decrypt"],
)
def test_cli_call_loads_only_what_it_uses(argv, stdout, unused):
    lines, loaded = _loaded_by(f"from compalg.cli import dispatch\nassert dispatch({argv!r}) == 0")
    assert lines == stdout
    for name in unused:
        prefix = f"compalg.{name}"
        assert not {m for m in loaded if m == prefix or m.startswith(prefix + ".")}, name


@pytest.mark.parametrize("package", sorted(PACKAGE_EXPORTS))
def test_exports_are_the_defining_modules_objects(package):
    pkg = importlib.import_module(package)
    for sub, names in PACKAGE_EXPORTS[package].items():
        module = importlib.import_module(f"{package}.{sub}")
        assert getattr(pkg, sub) is module
        for name in names.split():
            assert getattr(pkg, name) is getattr(module, name), f"{package}.{name}"


@pytest.mark.parametrize("package", sorted(PACKAGE_EXPORTS))
def test_star_import_and_dir_list_every_export(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert STAR_NAMES[package] <= namespace.keys()
    assert set(importlib.import_module(package).__all__) == STAR_NAMES[package]
    assert STAR_NAMES[package] <= set(dir(importlib.import_module(package)))


def test_names_and_submodules_resolve_on_first_access():
    lines, loaded = _loaded_by(
        "import compalg.ciphers\n"
        "print(compalg.ciphers.zone.__name__, compalg.ciphers.ZoneKey.__module__)\n"
        "print(compalg.Polynomial.__module__)"
    )
    assert lines == ["compalg.ciphers.zone compalg.ciphers.zone", "compalg.poly"]
    assert "compalg.ciphers.rsa_ideal" not in loaded


@pytest.mark.parametrize("package", sorted(PACKAGE_EXPORTS))
def test_unknown_name_is_an_attribute_error(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        pkg.no_such_name


def _code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC.parent))
)
def test_every_global_a_function_reads_exists(path):
    namespace = vars(importlib.import_module(_module_name(path)))
    top = compile(path.read_text(), str(path), "exec")
    missing = [
        f"{code.co_name} (line {code.co_firstlineno}): {ins.argval}"
        for code in _code_objects(top)
        if code is not top
        for ins in dis.get_instructions(code)
        if ins.opname == "LOAD_GLOBAL"
        and ins.argval not in namespace
        and not hasattr(builtins, ins.argval)
    ]
    assert not missing
