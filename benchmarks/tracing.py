"""Per-layer profile of one timed phase, aggregated by package module.

A cProfile run gives each module's call count and self time, and each named
public function's time per call (cumulative time over calls, profiler cost
included).  A trace hook alongside it counts the symbols of every word
reduce_signature is handed.  Functions are found through their code objects,
so a module-level function and a method of the same name stay apart; a
function that no longer exists reads 0.
"""

from __future__ import annotations

import cProfile
import importlib
import inspect
import pstats
import sys
from pathlib import Path

MODULES = ("cli", "verify", "enumeration", "exploration", "invariants",
           "extended", "affine", "msegment", "signature", "rootdata")

# metric name -> (module, attribute path) of the public function it times
FUNCTIONS = {
    "signature.reduce_signature.us": ("signature", "reduce_signature"),
    "affine.lowering.us": ("affine", "AffineModel.lowering"),
    "affine.raising.us": ("affine", "AffineModel.raising"),
    "affine.to_weight.us": ("affine", "AffineModel.to_weight"),
    "affine.to_extended.us": ("affine", "AffineModel.to_extended"),
    "msegment.lowering.us": ("msegment", "MultisegmentCrystal.lowering"),
    "msegment.raising.us": ("msegment", "MultisegmentCrystal.raising"),
    "msegment.star.us": ("msegment", "MultisegmentCrystal.star"),
    "extended.lowering.us": ("extended", "ExtendedCrystal.lowering"),
    "extended.raising.us": ("extended", "ExtendedCrystal.raising"),
}


def _code(module: str, path: str):
    """Code object of a function given by module and attribute path, or None."""
    obj = importlib.import_module(f"extcrystal.{module}")
    for attr in path.split("."):
        obj = getattr(obj, attr, None)
    return getattr(inspect.unwrap(obj), "__code__", None) if obj is not None else None


class LayerProfile:
    """Context manager that profiles the block it wraps."""

    def __init__(self):
        import extcrystal

        self.package = Path(extcrystal.__file__).resolve().parent
        self.codes = {name: _code(*where) for name, where in FUNCTIONS.items()}
        self.reduce = self.codes["signature.reduce_signature.us"]
        self.words = self.symbols = 0
        self.profile = cProfile.Profile()

    def _on_call(self, frame, event, arg):
        if frame.f_code is self.reduce:
            self.words += 1
            self.symbols += len(frame.f_locals[self.reduce.co_varnames[0]])

    def __enter__(self):
        sys.settrace(self._on_call)
        self.profile.enable()
        return self

    def __exit__(self, *exc):
        self.profile.disable()
        sys.settrace(None)
        return False

    def metrics(self) -> dict[str, float]:
        stats = pstats.Stats(self.profile).stats
        out = {f"{m}.{kind}": 0 for kind in ("calls", "self_s") for m in MODULES}
        for (filename, _line, _name), (_cc, nc, tt, _ct, _callers) in stats.items():
            path = Path(filename).resolve()
            if path.parent == self.package and path.stem in MODULES:
                out[f"{path.stem}.calls"] += nc
                out[f"{path.stem}.self_s"] += tt
        for name, code in self.codes.items():
            key = (code.co_filename, code.co_firstlineno, code.co_name) if code else None
            entry = stats.get(key)
            out[name] = 1e6 * entry[3] / entry[1] if entry and entry[1] else 0.0
        out["signature.symbols_per_call"] = self.symbols / self.words if self.words else 0.0
        return out
