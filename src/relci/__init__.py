"""Exact invariants of relative complete intersections in projective bundles.

The library computes, entirely over arbitrary-precision integers and
rationals: intersection numbers, pushforward ranks and degrees,
positivity margins of tautological twists and of the relative canonical
class, the nested Nef / bridge / Pseff cone structure of the cycle
planes, instability conditions for the fibres, and degree-of-contact
arithmetic.  Every closed formula has an independent brute-force oracle
in :mod:`relci.oracles`.

The package re-exports every name in the ``__all__`` of its library
modules, resolved on first access (PEP 562): ``import relci`` binds only
``__version__``, and the first other name read from the package imports
all seven modules and binds every exported name at once, so a process
that imports only ``relci.cli`` loads only what the front end imports.
"""

__version__ = "0.1.0"

_MODULES = ("bundles", "contact", "errors", "exact", "invariants", "oracles", "verdicts")


def __getattr__(name: str):
    from importlib import import_module

    modules = [import_module(f"{__name__}.{m}") for m in _MODULES]
    exported = [(n, getattr(module, n)) for module in modules for n in module.__all__]
    namespace = globals()
    namespace.update(exported)
    namespace.setdefault("__all__", ["__version__", *(n for n, _ in exported)])
    if name not in namespace:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return namespace[name]


def __dir__() -> list[str]:
    __getattr__("__all__")
    return sorted(globals())
