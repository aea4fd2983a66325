"""``spectral`` keeps its private names to itself.

The fold's tables, chunks and cost rule are ``spectral``'s own: another
module that read them could choose its own chunking or pricing for the same
rows, and build them twice. Two reads stand: the cache folds prefill
through ``_fold_into``, and the CLI warns with ``_run_degree`` when a middle
resolves fewer directions than the state holds. Methods of a
``FourierBasis`` are the class's interface and are not counted here. Of
its public names, the one-position oracles ``compress_batch`` and
``reconstruct`` are read by no product module but the materialized
attention oracle, which reconstructs.
"""

import ast
import pathlib

import fourier_kv

ALLOWED = {("cache", "_fold_into"), ("cli", "_run_degree")}


def spectral_reads(tree: ast.Module) -> set:
    """The names of ``fourier_kv.spectral`` a module imports or reads as
    attributes of the module, under any alias it binds."""
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names
                        if a.name == "fourier_kv.spectral" and a.asname}
        elif isinstance(node, ast.ImportFrom):
            module = ("." * node.level) + (node.module or "")
            if module in ("fourier_kv.spectral", ".spectral"):
                names |= {a.name for a in node.names}
            elif module in ("fourier_kv", "."):
                aliases |= {a.asname or a.name for a in node.names if a.name == "spectral"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            value = node.value
            if isinstance(value, ast.Name) and value.id in aliases:
                names.add(node.attr)
            elif ast.unparse(value) == "fourier_kv.spectral":
                names.add(node.attr)
    return names


def private_spectral_reads(tree: ast.Module) -> set:
    """:func:`spectral_reads` that are private names."""
    return {name for name in spectral_reads(tree) if name.startswith("_")}


def other_modules() -> list:
    """Every module of the package but ``spectral``."""
    package = pathlib.Path(fourier_kv.__file__).parent
    return sorted(p for p in package.glob("*.py") if p.stem != "spectral")


def test_no_module_but_spectral_reads_its_private_names():
    modules = other_modules()
    assert {p.stem for p in modules} >= {"attention", "cache", "cli", "dimselect"}
    reads = {(p.stem, name) for p in modules
             for name in private_spectral_reads(ast.parse(p.read_text(encoding="utf-8")))}
    assert reads == ALLOWED


def test_only_the_oracles_readers_read_them():
    # compress_batch and reconstruct fold and rebuild one position at a time:
    # the materialized attention oracle reconstructs, the product's errors
    # come from fold_errors and its folds from fold_blocks and fold_token;
    # ``__init__`` re-exports them and calls neither
    modules = [p for p in other_modules() if p.stem != "__init__"]
    readers = {name: {p.stem for p in modules
                      if name in spectral_reads(ast.parse(p.read_text(encoding="utf-8")))}
               for name in ("compress_batch", "reconstruct")}
    assert readers == {"compress_batch": set(), "reconstruct": {"attention"}}


def test_the_reader_sees_every_way_of_reading_a_name():
    # a module alias, an attribute of the dotted module, a relative import
    # and a plain one; a basis method and a name of another module are not reads
    source = """
import fourier_kv.spectral as sp
import fourier_kv.spectral
from fourier_kv import spectral
from .spectral import _a, build_basis
from fourier_kv.cache import _b
sp._c
fourier_kv.spectral._d
spectral._e
basis._plan
"""
    assert private_spectral_reads(ast.parse(source)) == {"_a", "_c", "_d", "_e"}
    assert spectral_reads(ast.parse(source)) == {"_a", "_c", "_d", "_e", "build_basis"}
