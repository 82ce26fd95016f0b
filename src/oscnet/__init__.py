"""Dissipative networks of coupled quantum harmonic oscillators at finite temperature.

Build a network (frequencies + couplings), attach thermal reservoirs, and the
package produces the exact Gaussian phase-space dynamics: damping/diffusion
rate matrices, the stationary width, time-dependent propagators, the
characteristic / P / Wigner functions of coherent and Fock mixtures, and
decoherence metrics (diffusion times, interference decay times, linear
entropy, concurrence).  A brute-force truncated-Fock-space master-equation
integrator serves as ground truth at small mode counts.

The package exports its submodules and every name in their ``__all__``,
loaded on first use (PEP 562): a public name imports the submodules in the
order of ``_SUBMODULES`` until one lists it.  So ``import oscnet`` imports
no numpy, nor does ``oscnet.ValidationError``; ``python -m oscnet`` relies
on that to choose the BLAS thread count before numpy loads (see
``oscnet.__main__``).
"""

import importlib

__version__ = "0.1.0"

# Any of these, when set, leaves the BLAS thread count to the user.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Public names are looked up in this order; no name is in two of their ``__all__``.
_SUBMODULES = (
    "errors", "network", "reservoirs", "stationary", "propagation", "states",
    "phasespace", "metrics", "oracle",
)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        return [*_SUBMODULES, *(n for m in _SUBMODULES for n in __getattr__(m).__all__)]
    if not name.startswith("_"):  # private and dunder names import nothing
        for module in map(__getattr__, _SUBMODULES):
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
