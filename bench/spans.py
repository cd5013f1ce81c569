"""Outside-in tracing of the cyclic_spectra layers for the traced benchmark run.

The tracer wraps public functions of the package from here, without touching
its source. Each wrapper replaces the function in every ``cyclic_spectra``
module that bound it by name, so calls made through ``from .x import f``
(``poly_gcd`` inside ``RationalFunction``, ``nfold_star_transforms`` inside
``limits``) are caught too. Spans live in memory and are written out once,
when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# (module, attribute, group); a group's self time is reported as <group>_s.
SPANNED = (
    ("cli", "main", "cli.self"),
    ("exact", "poly_gcd", "exact.gcd"),
    ("graphs", "star_product", "graphs.product"),
    ("graphs", "comb_product", "graphs.product"),
    ("graphs", "nfold_star", "graphs.product"),
    ("graphs", "nfold_comb", "graphs.product"),
    ("graphs", "adjacency", "graphs.product"),
    ("transforms", "char_poly", "transforms.char_poly"),
    ("transforms", "isolate_real_roots", "transforms.isolate"),
    ("transforms", "extract_spectrum", "transforms.extract"),
    ("convolutions", "nfold_star_transforms", "convolutions.transforms"),
    ("convolutions", "nfold_comb_transforms", "convolutions.transforms"),
    ("convolutions", "star_cauchy_identity_check", "convolutions.checks"),
    ("convolutions", "h_additivity_check", "convolutions.checks"),
    ("convolutions", "schwenk_star_check", "convolutions.checks"),
    ("convolutions", "schwenk_comb_check", "convolutions.checks"),
    ("convolutions", "comb_trace_check", "convolutions.checks"),
    ("convolutions", "star_char_poly", "convolutions.checks"),
    ("convolutions", "comb_char_poly", "convolutions.checks"),
    ("models", "eigensolve", "models.eigensolve"),
    ("models", "OperatorModel.boolean_embed", "models.tensor"),
    ("models", "OperatorModel.monotone_embed", "models.tensor"),
    ("models", "matrix_power_moments", "models.tensor"),
    ("models", "model_tables", "models.tensor"),
    ("models", "eval_cyclic_boolean_word", "models.tensor"),
    ("models", "eval_cyclic_monotone_word", "models.tensor"),
    ("partitions", "refinements", "partitions.lattice"),
    ("partitions", "moebius", "partitions.lattice"),
    ("partitions", "enumerate_partitions", "partitions.lattice"),
    ("cumulants", "moment_cumulant_check", "cumulants.self"),
    ("cumulants", "boolean_cumulants", "cumulants.self"),
    ("cumulants", "cyclic_boolean_cumulants", "cumulants.self"),
    ("cumulants", "h_coefficients", "cumulants.self"),
    ("limits", "beta_table", "limits.beta"),
    ("limits", "carleman_check", "limits.beta"),
    ("limits", "spectral_gap_report", "limits.star"),
    ("limits", "clt_report", "limits.star"),
    ("verify", "run_suite", "verify.suite"),
)
# Called too often for a span each; only counted.
COUNTED = (("exact", "Polynomial.__call__", "exact.eval_calls"),)
# Groups whose number of calls is a metric, as <group>_calls.
CALL_COUNTED = ("exact.gcd", "transforms.char_poly", "partitions.lattice")
PRODUCT_BUILDERS = frozenset(
    f"graphs.{name}" for name in ("star_product", "comb_product", "nfold_star", "nfold_comb")
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    command: int


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for index, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.end - s.start - covered)
    return out


def span_name(mod: str, attr: str) -> str:
    return f"{mod}.{attr.rsplit('.', 1)[-1]}"


def _coeff_bits(rc) -> int:
    coeffs = list(rc.num.coeffs) + list(rc.den.coeffs)
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs),
        default=0,
    )


class Tracer:
    """Records spans and counts while installed; restores the package on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.command = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._built_dims: set[int] = set()
        self._built_command = -1
        self.groups = {span_name(mod, attr): group for mod, attr, group in SPANNED}

    # -- installation -------------------------------------------------

    def __enter__(self) -> "Tracer":
        for mod, attr, group in SPANNED:
            name = span_name(mod, attr)
            self._rebind(mod, attr, lambda fn, name=name, group=group:
                         self._spanned(fn, name, group))
        for mod, attr, metric in COUNTED:
            self._rebind(mod, attr, lambda fn, metric=metric: self._counted(fn, metric))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _rebind(self, mod: str, attr: str, make) -> None:
        module = sys.modules[f"cyclic_spectra.{mod}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for name, other in list(sys.modules.items()):
            if other is None or not (name == "cyclic_spectra" or name.startswith("cyclic_spectra.")):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._restore.append((other, key, original))
                    setattr(other, key, wrapper)

    # -- wrappers -----------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.command)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _spanned(self, fn, name: str, group: str):
        on_entry, on_exit = _ENTRY_PROBES.get(name), _EXIT_PROBES.get(name)
        counts = self.counts
        calls_key = f"{group}_calls" if group in CALL_COUNTED else None

        if inspect.isgeneratorfunction(fn):
            # the work happens while the caller iterates: one span per resume
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                if calls_key:
                    counts[calls_key] += 1
                gen = fn(*args, **kwargs)
                while True:
                    span = self._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(span)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if calls_key:
                counts[calls_key] += 1
            if on_entry is not None:
                on_entry(self, args)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if on_exit is not None:
                on_exit(self, result)
            return result

        return traced

    def _counted(self, fn, metric: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return counted

    def _raise_max(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts[key], value)

    # -- product graphs that reach the oracle ---------------------------

    def _built(self, result) -> None:
        if any(self.spans[i].name in PRODUCT_BUILDERS for i in self._stack):
            return  # an inner step of a larger product
        if self._built_command != self.command:
            self._built_dims, self._built_command = set(), self.command
        self.counts["graphs.products_built"] += 1
        self._built_dims.add(result.n)

    def _solved(self, dim: int) -> None:
        if self._built_command == self.command and dim in self._built_dims:
            self._built_dims.discard(dim)
            self.counts["graphs.products_used"] += 1

    # -- results --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: self time per group, counts, maxima and ratios."""
        out: dict[str, float] = {f"{group}_s": 0.0 for _, _, group in SPANNED}
        for span, own in zip(self.spans, self_times(self.spans)):
            out[f"{self.groups[span.name]}_s"] += own
        c = self.counts
        for group in CALL_COUNTED:
            out[f"{group}_calls"] = c[f"{group}_calls"]
        out["exact.gcd_nontrivial_ratio"] = (
            c["exact.gcd_nontrivial"] / c["exact.gcd_calls"] if c["exact.gcd_calls"] else 0.0
        )
        out["graphs.product_used_ratio"] = (
            c["graphs.products_used"] / c["graphs.products_built"]
            if c["graphs.products_built"] else 0.0
        )
        for key in ("exact.eval_calls", "exact.coeff_bits_max",
                    "transforms.char_poly_dim_max", "transforms.isolate_degree_max",
                    "models.oracle_dim_max", "verify.trials_failed"):
            out[key] = c[key]
        return out

    def root_time(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent < 0)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for index, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "command": s.command,
                }) + "\n")


# Probes read the sizes that drive a layer's cost. Entry probes see the
# arguments before the call, so they also record calls that raise.

def _char_poly_entry(tr: Tracer, args) -> None:
    tr._raise_max("transforms.char_poly_dim_max", len(args[0]))


def _isolate_entry(tr: Tracer, args) -> None:
    tr._raise_max("transforms.isolate_degree_max", args[0].degree)


def _extract_entry(tr: Tracer, args) -> None:
    tr._raise_max("exact.coeff_bits_max", _coeff_bits(args[0]))


def _oracle_entry(tr: Tracer, args) -> None:
    dim = args[0].shape[0]
    tr._raise_max("models.oracle_dim_max", dim)
    tr._solved(dim)


def _gcd_exit(tr: Tracer, result) -> None:
    if result.degree >= 1:
        tr.counts["exact.gcd_nontrivial"] += 1


def _suite_exit(tr: Tracer, result) -> None:
    tr.counts["verify.trials_failed"] += result.failed


_ENTRY_PROBES = {
    "transforms.char_poly": _char_poly_entry,
    "transforms.isolate_real_roots": _isolate_entry,
    "transforms.extract_spectrum": _extract_entry,
    "models.eigensolve": _oracle_entry,
}
_EXIT_PROBES = {
    "exact.poly_gcd": _gcd_exit,
    "verify.run_suite": _suite_exit,
    **{name: Tracer._built for name in PRODUCT_BUILDERS},
}
