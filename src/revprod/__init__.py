"""Toolkit for studying what revenue data can and cannot say about production.

Simulates cost-minimizing firm panels under markup pricing, estimates the
quantity production function by proxy-variable GMM and the revenue equation
by GMM on its ex-post shock, and turns the identification structure of the
revenue case (flat directions, rank deficiencies, observational-equivalence
certificates, productivity non-recovery) into executable diagnostics.

Names resolve on first use from each module's `__all__`, in _MODULES' order,
and `import revprod.<module>` loads only that module's imports.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("technology", "panel_io", "costmin", "simulate", "estimate", "diagnostics")


def __getattr__(name):
    if name in _MODULES:  # a submodule loads alone, so `from . import costmin` in simulate loads no other
        return importlib.import_module(f"{__name__}.{name}")
    names = []
    for m in _MODULES:
        module = importlib.import_module(f"{__name__}.{m}")
        if name in module.__all__:
            return getattr(module, name)
        names += module.__all__
    if name == "__all__":
        return names
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
