"""Layer trace of eigenbond taken from outside the library.

``Tracer`` wraps public functions of the library's modules at the names
their callers look up (module globals, the package namespace and the
model classes), records nested spans and a few counts, and puts every
original back when the ``with`` block ends.  A span's self time is its
duration minus the time its child spans cover, so the self times of all
spans add up to the time spent inside the outermost traced calls.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass

import eigenbond
from eigenbond import coeffs, models, pricer, series, specfun, subordinators

# Where callers look functions up: the package namespace and every module
# on the pricing path.
_MODULES = (eigenbond, pricer, coeffs, series, subordinators, models, specfun)
_MODEL_CLASSES = (models.CIRModel, models.VasicekModel, models.ThreeHalvesModel)

# Span names per layer; a layer's self time is the sum over its spans.
LAYERS = {
    "specfun": ("specfun.tables",),
    "models": ("models.eigenfunctions", "models.eigenfunction_matrix"),
    "series": ("series.stop_level", "series.truncate_terms", "series.weight_cutoff"),
    "coeffs": ("coeffs.pair_tables", "coeffs.exp_tables", "coeffs.strike_projection"),
    "subordinators": (
        "subordinators.invert",
        "subordinators.rate_map",
        "subordinators.laplace_exponent",
    ),
    "pricer": ("pricer.price_bond",),
}


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Context manager that installs the wrappers for its duration."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list = []  # open spans as [name, seconds covered by children]
        self._originals: list = []

    def layer_self_s(self, layer: str) -> float:
        return sum(self.spans[name].self_s for name in LAYERS[layer])

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        stats = self.spans[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(args, out)
            return out

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._originals.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _everywhere(self, fn, traced, skip=()) -> None:
        """Replace ``fn`` under every module name that refers to it."""
        for module in _MODULES:
            if module in skip:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._replace(module, attr, traced)

    def _trace(self, name: str, fn, after=None) -> None:
        self._everywhere(fn, self._wrap(name, fn, after))

    # -- count hooks ----------------------------------------------------------

    def _count_terms(self, args, out) -> None:
        self.counts["models.eigenfunctions.terms"] += args[1] + 1

    def _count_stop(self, args, out) -> None:
        level, converged = out
        if not converged:
            self.counts["series.unconverged"] += 1
        # Only series evaluations count toward the useful share of
        # eigenfunction terms; the other stop_level callers cut weights.
        if self._stack and self._stack[-1][0] == "series.truncate_terms":
            self.counts["series.used_terms"] += level + 1
            self.counts["series.supplied_terms"] += len(args[0])

    def _count_degree(self, args, out) -> None:
        self.counts["coeffs.table_degree.max"] = max(
            self.counts["coeffs.table_degree.max"], args[0]
        )

    def _count_break_even_map(self, args, out) -> None:
        self.counts["subordinators.rate_map.break_even.calls"] += 1

    # -- install / restore ----------------------------------------------------

    def __enter__(self) -> "Tracer":
        for fn in (specfun.laguerre_sequence_table, specfun.hermite_sequence):
            self._trace("specfun.tables", fn)
        for cls in _MODEL_CLASSES:
            self._replace(
                cls,
                "eigenfunctions",
                self._wrap("models.eigenfunctions", vars(cls)["eigenfunctions"], self._count_terms),
            )
            self._replace(
                cls,
                "eigenfunction_matrix",
                self._wrap("models.eigenfunction_matrix", vars(cls)["eigenfunction_matrix"]),
            )
        self._trace("series.stop_level", series.stop_level, self._count_stop)
        self._trace("series.truncate_terms", series.truncate_terms)
        self._trace("series.weight_cutoff", series.weight_cutoff)
        for fn in (
            coeffs.laguerre_pair_integrals,
            coeffs.laguerre_pair_integrals_at_infinity,
            coeffs.hermite_pair_integrals,
            coeffs.hermite_pair_integrals_at_infinity,
        ):
            self._trace("coeffs.pair_tables", fn, self._count_degree)
        for fn in (
            coeffs.laguerre_exp_integrals,
            coeffs.laguerre_exp_integrals_at_infinity,
            coeffs.hermite_exp_integrals,
            coeffs.hermite_exp_integrals_at_infinity,
        ):
            self._trace("coeffs.exp_tables", fn, self._count_degree)
        self._trace("coeffs.strike_projection", coeffs.strike_projection)
        self._trace("pricer.price_bond", pricer.price_bond)
        self._trace("subordinators.invert", subordinators.invert_short_rate)
        self._trace("subordinators.laplace_exponent", subordinators.laplace_exponent)
        rate_map = subordinators.short_rate_map
        # The pricer maps break-even states; everything else maps quotes.
        self._replace(
            pricer,
            "short_rate_map",
            self._wrap("subordinators.rate_map", rate_map, self._count_break_even_map),
        )
        self._everywhere(
            rate_map, self._wrap("subordinators.rate_map", rate_map), skip=(pricer,)
        )
        return self

    def __exit__(self, *exc_info) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
