"""Spans around the benchmark's calls into finkern, and per-layer numbers.

A traced pass records one span per call the benchmark makes into a layer
(name, start, end, parent span, op id), keeps them in memory and writes them
out when the run ends. It also runs stdlib cProfile; a layer's self time is
the summed ``tottime`` of the functions defined in that module's file, and
call counts are exact. Kernel sizes are read from the outputs of the traced
calls. Untraced passes use :data:`UNTRACED`, whose ``call`` does nothing but
call.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

LAYERS = ("semiring", "spaces", "kernels", "enrichment", "mcmc", "generators",
          "sampler", "modelfile", "cli")

# The per-layer metrics, in print order: name -> unit.
PER_LAYER = {
    "semiring.self_s": "s",
    "semiring.mul_calls": "count",
    "semiring.add_calls": "count",
    "semiring.div_calls": "count",
    "semiring.cmp_calls": "count",
    "semiring.lift_calls": "count",
    "semiring.gcd_calls": "count",
    "semiring.values_made": "count",
    "spaces.self_s": "s",
    "spaces.product_calls": "count",
    "spaces.index_calls": "count",
    "kernels.self_s": "s",
    "kernels.compose_calls": "count",
    "kernels.compose_s": "s",
    "kernels.tensor_calls": "count",
    "kernels.tensor_s": "s",
    "kernels.reweight_s": "s",
    "kernels.sum_s": "s",
    "kernels.structural_s": "s",
    "kernels.entries_out": "count",
    "kernels.nonzero_frac": "1",
    "kernels.max_den_bits": "bits",
    "enrichment.self_s": "s",
    "enrichment.rn_derivative_calls": "count",
    "enrichment.is_cancellative_calls": "count",
    "mcmc.self_s": "s",
    "mcmc.build_mh_calls": "count",
    "mcmc.build_mh_s": "s",
    "mcmc.classical_mh_s": "s",
    "mcmc.gibbs_s": "s",
    "mcmc.exchange_s": "s",
    "mcmc.check_s": "s",
    "generators.self_s": "s",
    "sampler.to_float_s": "s",
    "sampler.run_chain_s": "s",
    "sampler.steps": "count",
    "sampler.zero_mass_steps": "count",
    "modelfile.parse_s": "s",
    "modelfile.emit_s": "s",
    "modelfile.bytes_parsed": "count",
    "cli.self_s": "s",
    "cli.main_s": "s",
    "cli.import_s": "s",
    "cli.exit_mismatch": "count",
    "trace.overhead_ratio": "1",
}

# Counts that must repeat exactly across two traced passes at one seed.
DETERMINISTIC = tuple(name for name in PER_LAYER
                      if name.endswith("_calls")
                      or name in ("semiring.values_made", "sampler.steps",
                                  "kernels.entries_out"))

STRUCTURAL = ("identity", "deterministic", "copy", "swap", "lift_involution",
              "left_unitor", "right_unitor")
CHECKS = ("is_reversible", "detailed_balance_violation", "is_invariant",
          "check_balancing", "balancing_violation", "_balancing_violation",
          "is_skew_reversible")
COMPARISONS = ("__eq__", "__le__", "__lt__", "__ge__", "__gt__")


class _Untraced:
    """Calls straight through; used for every timed end-to-end pass."""

    def call(self, name, fn, *args):
        return fn(*args)

    def op(self, kind):
        return nullcontext()

    def span(self, name):
        return nullcontext()

    def count(self, name, value):
        pass

    def inspect(self, value):
        pass

    def child_profile(self):
        return None


UNTRACED = _Untraced()


class Tracer:
    """Records spans, counts and output sizes for one traced pass.

    Child processes write their profiles into ``profile_dir``.
    """

    def __init__(self, profile_dir: Path):
        self.origin = time.perf_counter()
        self.profile_dir = profile_dir
        self.profiles: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self.entries_out = 0
        self.nonzeros = 0
        self.max_den_bits = 0
        self.counts = {"sampler.steps": 0, "sampler.zero_mass_steps": 0,
                       "modelfile.bytes_parsed": 0, "cli.exit_mismatch": 0}

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, self._op, name,
                time.perf_counter() - self.origin, None]
        self.spans.append(span)
        self._stack.append(span[0])
        try:
            yield
        finally:
            self._stack.pop()
            span[5] = time.perf_counter() - self.origin

    def op(self, kind: str):
        """The span of one op; spans opened inside it share its op id."""
        self._op += 1
        return self.span(f"op.{kind}")

    def call(self, name, fn, *args):
        with self.span(name):
            result = fn(*args)
        self.inspect(result)
        return result

    def child_profile(self) -> str:
        path = str(self.profile_dir / f"child-{len(self.profiles)}.prof")
        self.profiles.append(path)
        return path

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    def inspect(self, value) -> None:
        """Add the sizes of every kernel in a call's output."""
        entries = getattr(value, "entries", None)
        if isinstance(entries, tuple) and hasattr(value, "dom"):
            for row in entries:
                self.entries_out += len(row)
                for v in row:
                    if v.num:
                        self.nonzeros += 1
                        bits = v.den.bit_length()
                        if bits > self.max_den_bits:
                            self.max_den_bits = bits
        elif isinstance(value, (tuple, list)):
            for item in value:
                self.inspect(item)
        elif hasattr(value, "ac") and hasattr(value, "si"):
            self.inspect(value.ac)
            self.inspect(value.si)


# ---------------------------------------------------------------------------
# cProfile statistics -> per-layer metrics


def merged_stats(profile: cProfile.Profile, files) -> dict:
    """One stats table from the in-process profile and child profile files."""
    stats = pstats.Stats(profile)
    for path in files:
        stats.add(path)
    return stats.stats


def _layer_of(filename: str) -> str | None:
    head, base = os.path.split(filename)
    if os.path.basename(head) != "finkern" or not base.endswith(".py"):
        return None
    layer = base[:-3]
    return layer if layer in LAYERS else None


def layer_metrics(stats: dict, tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric except ``cli.import_s`` and the overhead ratio."""
    by_layer: dict[str, dict[str, list]] = {layer: {} for layer in LAYERS}
    self_s = dict.fromkeys(LAYERS, 0.0)
    gcd_calls = 0
    for (filename, _, func), (_, nc, tt, ct, callers) in stats.items():
        layer = _layer_of(filename)
        if layer is not None:
            self_s[layer] += tt
            by_layer[layer].setdefault(func, []).append((nc, ct, callers))
        elif func == "<built-in method math.gcd>":
            gcd_calls += sum(value[1] for key, value in callers.items()
                             if _layer_of(key[0]) == "semiring")

    def calls(layer, *funcs):
        return sum(nc for f in funcs for nc, _, _ in by_layer[layer].get(f, ()))

    def cum(layer, *funcs):
        """Cumulative time of ``funcs``, counting nested calls among them once."""
        total = 0.0
        for f in funcs:
            for _, ct, callers in by_layer[layer].get(f, ()):
                total += ct
                for key, value in callers.items():
                    if _layer_of(key[0]) == layer and key[2] in funcs:
                        total -= value[3]
        return total

    m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    m.update({
        "semiring.mul_calls": calls("semiring", "__mul__"),
        "semiring.add_calls": calls("semiring", "__add__"),
        "semiring.div_calls": calls("semiring", "__truediv__"),
        "semiring.cmp_calls": calls("semiring", *COMPARISONS),
        "semiring.lift_calls": calls("semiring", "_lift"),
        "semiring.gcd_calls": gcd_calls,
        "semiring.values_made": calls("semiring", "__init__", "_raw"),
        "spaces.product_calls": calls("spaces", "product", "product_many"),
        "spaces.index_calls": calls("spaces", "index"),
        "kernels.compose_calls": calls("kernels", "compose"),
        "kernels.compose_s": cum("kernels", "compose"),
        "kernels.tensor_calls": calls("kernels", "tensor"),
        "kernels.tensor_s": cum("kernels", "tensor"),
        "kernels.reweight_s": cum("kernels", "reweight"),
        "kernels.sum_s": cum("kernels", "__add__"),
        "kernels.structural_s": cum("kernels", *STRUCTURAL),
        "kernels.entries_out": tracer.entries_out,
        "kernels.nonzero_frac": (tracer.nonzeros / tracer.entries_out
                                 if tracer.entries_out else 0.0),
        "kernels.max_den_bits": tracer.max_den_bits,
        "enrichment.rn_derivative_calls": calls("enrichment", "rn_derivative"),
        "enrichment.is_cancellative_calls": calls("enrichment", "is_cancellative"),
        "mcmc.build_mh_calls": calls("mcmc", "build_mh"),
        "mcmc.build_mh_s": cum("mcmc", "build_mh"),
        "mcmc.classical_mh_s": cum("mcmc", "classical_mh"),
        "mcmc.gibbs_s": cum("mcmc", "gibbs"),
        "mcmc.exchange_s": cum("mcmc", "exchange_algorithm"),
        "mcmc.check_s": cum("mcmc", *CHECKS),
        "sampler.to_float_s": cum("sampler", "to_float"),
        "sampler.run_chain_s": cum("sampler", "run_chain"),
        "modelfile.parse_s": cum("modelfile", "parse"),
        "modelfile.emit_s": cum("modelfile", "emit"),
        "cli.main_s": cum("cli", "main"),
    })
    m.update(tracer.counts)
    return m
