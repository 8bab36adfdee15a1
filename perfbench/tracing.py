"""Span recording around the public functions of each spinboson layer.

Only a traced benchmark child installs this; timed passes run the program
untouched. A wrapper replaces a function in every package module that bound
it, because `from .fockmodel import build_rabi` gives spectral, control and
cli bindings of their own that patching fockmodel alone would miss. The
dense eigensolvers of numpy.linalg and scipy.linalg are wrapped as well, and
a call counts only when it comes straight from package code.

A span is [id, parent id, name, start, end, attributes]; spans stay in
memory and are handed back by `dump` when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time

PACKAGE = "spinboson"

OPERATORS = (
    "build_rabi",
    "build_jc",
    "build_control",
    "build_interaction",
    "build_parity",
    "build_excitation",
)

# (defining module, attribute, span name); "Class.method" patches the class
SPANS = (
    ("spinboson.cli", "main", "cli.main"),
    *(("spinboson.fockmodel", b, "fockmodel.build") for b in OPERATORS),
    ("spinboson.spectral", "diagonalize", "spectral.diagonalize"),
    ("spinboson.spectral", "track_branches", "spectral.track_branches"),
    ("spinboson.spectral", "convergence_scan", "spectral.convergence_scan"),
    ("spinboson.control", "labelled_spectrum", "control.labelled_spectrum"),
    ("spinboson.perturbation", "build_table", "perturbation.build_table"),
    ("spinboson.resonance", "numeric_resonance_scan", "resonance.scan"),
    ("spinboson.resonance", "coupling_graph", "resonance.coupling_graph"),
    ("spinboson.resonance", "certify_chain", "resonance.certify_chain"),
    ("spinboson.resonance", "degenerate_quadruple_check", "resonance.degenerate_check"),
    ("spinboson.control", "transfer_experiment", "control.transfer_experiment"),
    ("spinboson.control", "design_transfer", "control.design_transfer"),
    ("spinboson.control", "propagate", "control.propagate"),
    ("spinboson.control", "SegmentPropagator.step", "control.step"),
)

# counted without a span, so their time stays with the caller's self time
COUNTS = (("spinboson.perturbation", "e_series_fit", "perturbation.fit"),)

EIGENSOLVERS = (
    ("numpy.linalg", "eigh"),
    ("numpy.linalg", "eigvalsh"),
    ("scipy.linalg", "eigh"),
    ("scipy.linalg", "eigvalsh"),
    ("scipy.linalg", "eigh_tridiagonal"),
    ("scipy.linalg", "eigvalsh_tridiagonal"),
    ("scipy.linalg", "eig_banded"),
    ("scipy.linalg", "eigvals_banded"),
)
EIGENSOLVE = "spectral.eigensolve"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# attributes read from a call's arguments or result after the span closes
ATTRS = {
    "spectral.track_branches": lambda a, k, r: {"points": len(_arg(a, k, 1, "g_grid"))},
    "resonance.scan": lambda a, k, r: {"window": int(_arg(a, k, 1, "window"))},
    "resonance.degenerate_check": lambda a, k, r: {"quadruples": int(r["n_quadruples"])},
    "control.design_transfer": lambda a, k, r: {"segments": len(r[0].segments)},
    # the trailing dimension is n for a dense matrix, a band or a diagonal
    EIGENSOLVE: lambda a, k, r: {"dim": int(getattr(a[0], "shape", (len(a[0]),))[-1])},
}


def _in_package(module_name: str) -> bool:
    return module_name == PACKAGE or module_name.startswith(PACKAGE + ".")


class Tracer:
    """In-memory span and count recorder for one traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._ids = itertools.count()

    def _span(self, name, fn, package_callers_only=False):
        attrs = ATTRS.get(name)
        spans, stack, ids, missing = self.spans, self._stack, self._ids, self.missing

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if package_callers_only and not _in_package(
                sys._getframe(1).f_globals.get("__name__", "")
            ):
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append([sid, parent, name, start, end, None])
            if attrs is not None:
                try:
                    spans[-1][5] = attrs(args, kwargs, result)
                except (LookupError, TypeError, AttributeError, ValueError) as exc:
                    missing.append(f"attributes of {name}: {exc!r}")
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, modname: str, path: str, make) -> None:
        module = importlib.import_module(modname)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{modname}.{path}")
            return
        wrapper = make(fn)
        setattr(owner, attr, wrapper)
        if owner is not module:
            return  # a method: every caller reaches it through the one class
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not _in_package(mod_name):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        importlib.import_module(PACKAGE)
        for modname, path, name in SPANS:
            self._patch(modname, path, functools.partial(self._span, name))
        for modname, path, name in COUNTS:
            self._patch(modname, path, functools.partial(self._count, name))
        for modname, path in EIGENSOLVERS:
            self._patch(
                modname,
                path,
                functools.partial(self._span, EIGENSOLVE, package_callers_only=True),
            )

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "missing": self.missing}
