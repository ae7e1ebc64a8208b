"""Spans around the package's public functions, recorded from outside it.

`install` wraps each traced function once and rebinds the wrapper under
every module namespace that holds the original, because `cli`, `bounds`,
`weights` and `construct` import those functions by name.  Spans are kept
in memory as [name, start, end, parent, job] and aggregated at the end of
the pass; work counters are taken from arguments and results at the same
boundaries.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter

TRACED = {
    "gf2": ("enumerate_primitives", "is_primitive"),
    "construct": ("build_code", "codeword_set", "verify_disjoint"),
    "weights": ("weight_enumerator_exact", "ensemble_enumerators",
                "ensemble_average_exact", "macwilliams", "avg_primal_approx",
                "avg_dual_approx", "kld"),
    "bounds": ("verify_existence", "dmin_bound", "union_bound"),
    "awgn": ("simulate_wer",),
    "cli": ("run",),
}

# decoder batch size from the awgn reproducibility contract: max(1, 2^22 // 2^k)
BATCH_BUDGET = 1 << 22


def _simulate_counts(args, kwargs, results):
    code = args[0].code
    batch = max(1, BATCH_BUDGET >> code.k)
    trials = sum(r.trials for r in results)
    return {
        "awgn.points": len(results),
        "awgn.trials": trials,
        "awgn.word_errors": sum(r.word_errors for r in results),
        "awgn.batches": sum(-(-r.trials // batch) for r in results),
        "awgn.corr_flop": 2 * trials * (1 << code.k) * code.n,
        "awgn.codebook_bytes_max": (1 << code.k) * code.n * 8,
    }


COUNTERS = {
    "gf2.enumerate_primitives": lambda a, kw, r: {"gf2.candidates_tested": 1 << (a[0] - 1)},
    "construct.build_code": lambda a, kw, r: {"construct.sequence_bits": r.k * r.n},
    "weights.weight_enumerator_exact": lambda a, kw, r: {"weights.codewords_walked": 1 << r.dim},
    "awgn.simulate_wer": _simulate_counts,
}
MAX_COUNTERS = {"awgn.codebook_bytes_max"}
COUNTER_KEYS = ("gf2.candidates_tested", "construct.sequence_bits", "weights.codewords_walked",
                "awgn.points", "awgn.trials", "awgn.word_errors", "awgn.batches",
                "awgn.corr_flop", "awgn.codebook_bytes_max")


class Recorder:
    """Span and counter store for one pass; `job` is -1 during set-up."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.job = -1

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            if count is not None and self.job >= 0:
                for key, value in count(args, kwargs, result).items():
                    if key in MAX_COUNTERS:
                        self.counters[key] = max(self.counters[key], value)
                    else:
                        self.counters[key] += value
            return result

        return wrapper


def install(recorder: Recorder, package) -> None:
    modules = {name: importlib.import_module(f"{package.__name__}.{name}")
               for name in TRACED}
    namespaces = [package, *modules.values()]
    for mod_name, names in TRACED.items():
        for name in names:
            original = getattr(modules[mod_name], name)
            wrapper = recorder.wrap(f"{mod_name}.{name}", original)
            for ns in namespaces:
                if vars(ns).get(name) is original:
                    setattr(ns, name, wrapper)


def layer_keys() -> list[str]:
    """Every figure `summarize` can report; those absent from a pass are 0."""
    keys = [f"{mod}.{fn}.{stat}" for mod, fns in TRACED.items() for fn in fns
            for stat in ("calls", "s", "self_s", "setup_calls", "setup_s")]
    return keys + [f"{mod}.self_s" for mod in TRACED] + list(COUNTER_KEYS)


def summarize(spans: list[list], counters: dict, wall_s: float) -> dict:
    """Per-function calls, total and self seconds, per-module self seconds,
    and the part of the job loop outside every span."""
    child = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Counter = Counter()
    top_level = 0.0
    for (name, start, end, parent, job), covered in zip(spans, child):
        dur = end - start
        self_s = dur - covered
        if self_s < -1e-9:
            raise RuntimeError(f"child spans of {name} outlast it")
        if job < 0:
            out[f"{name}.setup_calls"] += 1
            out[f"{name}.setup_s"] += dur
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += dur
        out[f"{name}.self_s"] += self_s
        out[f"{name.split('.')[0]}.self_s"] += self_s
        if parent < 0:
            top_level += dur
    out.update(counters)
    out["trace.wall_s"] = wall_s
    out["trace.unwrapped_s"] = wall_s - top_level
    accounted = sum(out[f"{mod}.self_s"] for mod in TRACED) + out["trace.unwrapped_s"]
    if abs(accounted - wall_s) > 1e-6 * wall_s:
        raise RuntimeError("layer self times and the unwrapped part do not add up to wall_s")
    return dict(out)
