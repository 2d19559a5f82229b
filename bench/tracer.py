"""Per-layer spans and counters, wrapped around concavex from outside.

No file of the package changes.  A wrapped function is replaced in every
``concavex`` module namespace that holds it, because ``from .x import f``
copies the reference: ``mirror`` looks up its own ``reduced_block``,
``hyper_block``, ``series_exp`` and ``series_inverse``, and ``cli`` its own
``solve_mirror_map``, ``extract_invariants`` and ``verify_all``.  The two
kernels, ``LaurentBlock.__mul__`` and ``CohClass.__mul__``, are patched as
class attributes and only counted: timing every product would cost more
than the products themselves.

A span's self time is its duration minus the time its child spans cover.
Spans close in ``try``/``finally``: ``oracle_invariant`` raises
``SamplingError`` as routine retry flow, and a span left open there would
charge the oracle's time to whichever span encloses it.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, function, span name)
SPANS = (
    ("cli", "main", "cli.main"),
    ("geometry", "parse_spec", "geometry.parse_spec"),
    ("geometry", "validate", "geometry.validate"),
    ("eulerdata", "reduced_block", "eulerdata.reduced_block"),
    ("eulerdata", "hyper_block", "eulerdata.hyper_block"),
    ("mirror", "solve_mirror_map", "mirror.solve"),
    ("mirror", "integrand_series", "mirror.integrand"),
    ("mirror", "extract_invariants", "mirror.extract"),
    ("mirror", "verify_all", "mirror.verify"),
    ("qseries", "series_exp", "qseries.series_exp"),
    ("qseries", "series_inverse", "qseries.series_inverse"),
    ("localization", "oracle_invariant_checked", "localization.oracle"),
    ("localization", "oracle_invariant", "localization.sample"),
)


class Tracer:
    """Span and counter recorder; state lives here, not in module globals."""

    def __init__(self) -> None:
        self._stack: list[list[float]] = []  # child seconds of each open span
        self.total: defaultdict[str, float] = defaultdict(float)
        self.own: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._coh_calls = [0]  # a bare cell: CohClass.__mul__ is the hottest call

    def span(self, name, fn, after=None, retry=()):
        """Wrap `fn` in a span called `name`.

        `after(result)` runs outside every span's self time.  Exceptions of
        the types in `retry` are counted as ``<name>.retries``.
        """
        stack = self._stack

        def wrapper(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except retry:
                self.counts[name + ".retries"] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.total[name] += elapsed
                self.own[name] += elapsed - cell[0]
                self.calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                start = time.perf_counter()
                after(result)
                if stack:
                    stack[-1][0] += time.perf_counter() - start
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def open_spans(self) -> int:
        return len(self._stack)

    def record_block(self, blk) -> None:
        """Size counters of one block returned by eulerdata."""
        c = self.counts
        c["block_terms_total"] += len(blk.terms)
        c["block_terms_max"] = max(c["block_terms_max"], len(blk.terms))
        bits = c["coeff_bits_max"]
        for (a, _, _), cls in blk.terms.items():
            if a >= -1:
                c["window_terms"] += 1
            c["stored_coeffs"] += len(cls.coeffs)
            for r in cls.coeffs:
                if r:
                    bits = max(bits, r.numerator.bit_length(), r.denominator.bit_length())
                else:
                    c["zero_coeffs"] += 1
        c["coeff_bits_max"] = bits

    def install(self) -> None:
        """Patch every binding of the traced functions and both kernels."""
        from concavex import cli  # noqa: F401  imports every module
        from concavex.cohomology import CohClass
        from concavex.laurent import LaurentBlock
        from concavex.localization import SamplingError

        for module, func, name in SPANS:
            original = getattr(sys.modules["concavex." + module], func)
            after = self.record_block if module == "eulerdata" else None
            retry = SamplingError if func == "oracle_invariant" else ()
            wrapped = self.span(name, original, after, retry)
            for modname, mod in list(sys.modules.items()):
                if modname == "concavex" or modname.startswith("concavex."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

        counts = self.counts
        laurent_mul = LaurentBlock.__mul__
        coh_mul = CohClass.__mul__
        coh_calls = self._coh_calls

        def laurent_counted(a, b):
            counts["laurent.mul_calls"] += 1
            counts["laurent.mul_term_pairs"] += len(a.terms) * len(b.terms)
            return laurent_mul(a, b)

        def coh_counted(a, b):
            coh_calls[0] += 1
            return coh_mul(a, b)

        LaurentBlock.__mul__ = laurent_counted
        CohClass.__mul__ = coh_counted

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers under the names the benchmark reports."""
        t, own, n, c = self.total, self.own, self.calls, self.counts
        terms = c["block_terms_total"]
        stored = c["stored_coeffs"]
        return {
            "eulerdata.reduced_block_s": t["eulerdata.reduced_block"],
            "eulerdata.reduced_block_calls": n["eulerdata.reduced_block"],
            "eulerdata.hyper_block_s": t["eulerdata.hyper_block"],
            "eulerdata.hyper_block_calls": n["eulerdata.hyper_block"],
            "eulerdata.block_terms_max": c["block_terms_max"],
            "eulerdata.block_terms_total": terms,
            "eulerdata.coeff_bits_max": c["coeff_bits_max"],
            "eulerdata.window_terms": c["window_terms"],
            "eulerdata.window_ratio": c["window_terms"] / terms if terms else 0.0,
            "mirror.solve_self_s": own["mirror.solve"],
            "mirror.integrand_self_s": own["mirror.integrand"],
            "mirror.extract_self_s": own["mirror.extract"],
            "mirror.verify_self_s": own["mirror.verify"],
            "mirror.solve_calls": n["mirror.solve"],
            "qseries.series_exp_s": t["qseries.series_exp"],
            "qseries.series_exp_calls": n["qseries.series_exp"],
            "qseries.series_inverse_s": t["qseries.series_inverse"],
            "qseries.series_inverse_calls": n["qseries.series_inverse"],
            "laurent.mul_calls": c["laurent.mul_calls"],
            "laurent.mul_term_pairs": c["laurent.mul_term_pairs"],
            "cohomology.mul_calls": self._coh_calls[0],
            "cohomology.zero_coeffs": c["zero_coeffs"],
            "cohomology.stored_coeffs": stored,
            "cohomology.zero_ratio": c["zero_coeffs"] / stored if stored else 0.0,
            "localization.oracle_s": t["localization.oracle"],
            "localization.oracle_calls": n["localization.oracle"],
            "localization.degenerate_draws": c["localization.sample.retries"],
            "cli.self_s": own["cli.main"],
            "geometry.load_s": t["geometry.parse_spec"] + t["geometry.validate"],
        }
