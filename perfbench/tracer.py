"""Traced request, and the per-layer metrics computed from its trace.

As a script it runs one CLI request in the current process with the public
functions of every ``gothicvol`` module wrapped:

    python3 perfbench/tracer.py TRACE_FILE -- <gothicvol argv>

The wrappers are installed from outside the package, in every module
namespace that binds a wrapped function, so calls inside the package are
caught too.  Spans (name, start, end, parent) stay in memory and are written
to TRACE_FILE as JSON when ``gothicvol.cli.main`` returns.  The hot scalar
functions get call counts only.  The exit code is the CLI's.

Imported, the module gives ``layer_metrics``, which turns the traces of a
run into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

from workloads import VERIFY_SUITES

# Functions that get a span, by module.
SPANNED = {
    "arith": ("sigma_table", "sigma_prefix", "sl2_order_table", "jordan2_table"),
    "qforms": ("ek_square_table", "e_square_table"),
    "prototypes": ("enumerate_prototypes", "e_value"),
    "zagier": ("ebar1_exact", "ebar6_exact"),
    "ideals": ("ideal_membership", "ideal_basis", "ideal_equal", "galois_conjugate",
               "class_count", "component_list", "gram_matrix", "symplectic_divisors",
               "polarization_restriction"),
    "euler": ("precompute_e_square", "chi_X_square", "chi_X_nonsquare", "chi_X",
              "chi_X_br", "chi_R", "chi_W2", "chi_W4", "chi_W6", "chi_G"),
    "counting": ("smm", "cd_count", "h2_permutation_oracle"),
    "volume": ("smm_totals", "direct_raw_sum", "volume_estimate", "sk_sum", "t_sum",
               "closed_raw_sum"),
    "verify": ("run_suite",),
    "cli": ("main",),
}
# Hot scalar functions: call counts only.
COUNTED = {"arith": ("factorize", "sigma", "moebius"), "qforms": ("ek_coeff",),
           "zagier": ("euler_factor",)}
# lru-cached tables whose misses and sizes are recorded.
TABLES = ("sigma_table", "sigma_prefix", "sl2_order_table", "jordan2_table")


class Trace:
    """The spans and counters of one traced request process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, list[int]] = {}
        self.spf_first_call_s = 0.0
        self.tables: dict[str, object] = {}  # name -> the lru-cached table function
        self.table_misses: dict[str, int] = {}
        self.table_entries: dict[str, int] = {}
        self.prototypes_enumerated = 0
        self.verify_suite_s: dict[str, float] = {}

    def span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper

    def count(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def factorize(self, fn):
        """Counts calls, and times the first call with n > 1, which is the
        one that sets up the smallest-prime-factor sieve."""
        cell = self.counts.setdefault("arith.factorize", [0])
        pending = [True]

        def wrapper(n, *args, **kwargs):
            cell[0] += 1
            if pending[0] and n > 1:
                pending[0] = False
                start = time.perf_counter()
                try:
                    return fn(n, *args, **kwargs)
                finally:
                    self.spf_first_call_s = time.perf_counter() - start
            return fn(n, *args, **kwargs)

        return wrapper

    def table(self, name, fn):
        """Records the misses of an lru-cached table function and the entries
        (N + 1) each miss builds."""
        self.tables[name] = fn
        self.table_misses[name] = 0
        self.table_entries[name] = 0

        def wrapper(N, *args, **kwargs):
            before = fn.cache_info().misses
            try:
                return fn(N, *args, **kwargs)
            finally:
                if fn.cache_info().misses > before:
                    self.table_misses[name] += 1
                    self.table_entries[name] += N + 1

        return wrapper

    def enumerate_prototypes(self, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.prototypes_enumerated += len(out)
            return out

        return wrapper

    def run_suite(self, fn):
        def wrapper(*args, **kwargs):
            results = fn(*args, **kwargs)
            for r in results:
                self.verify_suite_s[r.suite] = self.verify_suite_s.get(r.suite, 0.0) + r.elapsed_s
            return results

        return wrapper

    def install(self) -> None:
        """Wrap the listed functions wherever a gothicvol module binds them."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and name.split(".")[0] == "gothicvol"]
        replace = {}
        for mod_name, names in SPANNED.items():
            mod = importlib.import_module(f"gothicvol.{mod_name}")
            for fname in names:
                orig = getattr(mod, fname)
                wrapped = orig
                if fname in TABLES:
                    wrapped = self.table(f"{mod_name}.{fname}", wrapped)
                if fname == "run_suite":
                    wrapped = self.run_suite(wrapped)
                if fname == "enumerate_prototypes":
                    wrapped = self.enumerate_prototypes(wrapped)
                replace[id(orig)] = (orig, self.span(f"{mod_name}.{fname}", wrapped))
            if mod_name == "cli":
                for fname in dir(mod):
                    if fname.startswith("_cmd_"):
                        orig = getattr(mod, fname)
                        replace[id(orig)] = (orig, self.span("cli.handler", orig))
        for mod_name, names in COUNTED.items():
            mod = importlib.import_module(f"gothicvol.{mod_name}")
            for fname in names:
                orig = getattr(mod, fname)
                wrapped = (self.factorize(orig) if fname == "factorize"
                           else self.count(f"{mod_name}.{fname}", orig))
                replace[id(orig)] = (orig, wrapped)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def document(self, import_s: float) -> dict:
        return {
            "import_s": import_s,
            "spans": self.spans,
            "counts": {name: cell[0] for name, cell in self.counts.items()},
            "spf_first_call_s": self.spf_first_call_s,
            "table_misses": self.table_misses,
            "table_entries": self.table_entries,
            "table_cache": {name: {"hits": fn.cache_info().hits,
                                   "misses": fn.cache_info().misses}
                            for name, fn in self.tables.items()},
            "prototypes_enumerated": self.prototypes_enumerated,
            "verify_suite_s": self.verify_suite_s,
        }


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

_CHI = {f"euler.{n}" for n in SPANNED["euler"] if n.startswith("chi_")}
_IDEALS = {f"ideals.{n}" for n in SPANNED["ideals"]}

# Inclusive time of the outermost spans of the group (a span nested in a span
# of its own group is not counted twice).
INCLUSIVE = {
    "arith.sigma_table_s": {"arith.sigma_table"},
    "arith.sigma_prefix_s": {"arith.sigma_prefix"},
    "arith.sl2_order_table_s": {"arith.sl2_order_table"},
    "arith.jordan2_table_s": {"arith.jordan2_table"},
    "qforms.ek_square_table_s": {"qforms.ek_square_table"},
    "prototypes.enumerate_prototypes_s": {"prototypes.enumerate_prototypes"},
    "prototypes.e_value_s": {"prototypes.e_value"},
    "zagier.ebar_s": {"zagier.ebar1_exact", "zagier.ebar6_exact"},
    "euler.precompute_e_square_s": {"euler.precompute_e_square"},
    "counting.h2_permutation_oracle_s": {"counting.h2_permutation_oracle"},
    "counting.cd_count_s": {"counting.cd_count"},
    "volume.direct_raw_sum_s": {"volume.direct_raw_sum"},
    "volume.closed_raw_sum_s": {"volume.closed_raw_sum"},
}
# Self time: span duration minus the time its child spans cover.
SELF = {
    "qforms.e_square_table_self_s": {"qforms.e_square_table"},
    "ideals.self_s": _IDEALS,
    "euler.chi_self_s": _CHI,
    "counting.smm_self_s": {"counting.smm"},
    "volume.smm_totals_self_s": {"volume.smm_totals"},
    "volume.volume_estimate_self_s": {"volume.volume_estimate"},
    "volume.sk_sum_self_s": {"volume.sk_sum"},
    "volume.t_sum_self_s": {"volume.t_sum"},
    "cli.main_self_s": {"cli.main"},
}
# Number of spans.
CALLS = {
    "euler.chi_calls": _CHI,
    "counting.smm_calls": {"counting.smm"},
    "volume.sk_sum_calls": {"volume.sk_sum"},
}
# Counted calls of hot scalar functions.
COUNTS = {
    "arith.factorize_calls": "arith.factorize",
    "arith.sigma_calls": "arith.sigma",
    "arith.moebius_calls": "arith.moebius",
    "qforms.ek_coeff_calls": "qforms.ek_coeff",
    "zagier.euler_factor_calls": "zagier.euler_factor",
}
# name -> unit, in report order
LAYER_METRICS = {
    "arith.spf_first_call_s": "s",
    "arith.factorize_calls": "count",
    "arith.sigma_calls": "count",
    "arith.moebius_calls": "count",
    "arith.sigma_table_s": "s",
    "arith.sigma_table_misses": "count",
    "arith.sigma_table_entries": "count",
    "arith.sigma_prefix_s": "s",
    "arith.sl2_order_table_s": "s",
    "arith.sl2_order_table_entries": "count",
    "arith.jordan2_table_s": "s",
    "arith.table_hit_ratio": "ratio",
    "qforms.ek_square_table_s": "s",
    "qforms.e_square_table_self_s": "s",
    "qforms.ek_coeff_calls": "count",
    "prototypes.enumerate_prototypes_s": "s",
    "prototypes.prototypes_enumerated": "count",
    "prototypes.e_value_s": "s",
    "zagier.ebar_s": "s",
    "zagier.euler_factor_calls": "count",
    "ideals.self_s": "s",
    "euler.precompute_e_square_s": "s",
    "euler.chi_self_s": "s",
    "euler.chi_calls": "count",
    "counting.smm_self_s": "s",
    "counting.smm_calls": "count",
    "counting.h2_permutation_oracle_s": "s",
    "counting.cd_count_s": "s",
    "volume.smm_totals_self_s": "s",
    "volume.direct_raw_sum_s": "s",
    "volume.volume_estimate_self_s": "s",
    "volume.sk_sum_self_s": "s",
    "volume.sk_sum_calls": "count",
    "volume.t_sum_self_s": "s",
    "volume.closed_raw_sum_s": "s",
    **{f"verify.suite_s.{s}": "s" for s in VERIFY_SUITES},
    "cli.import_s": "s",
    "cli.main_self_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}


def _outermost(spans, names) -> list[int]:
    """Indices of the spans in ``names`` with no ancestor in ``names``."""
    out = []
    for i, (name, _, _, parent) in enumerate(spans):
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            out.append(i)
    return out


def request_metrics(doc: dict) -> dict[str, float]:
    """The per-layer figures of one traced request (without the overhead)."""
    spans = doc["spans"]
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    m: dict[str, float] = {}
    for metric, names in INCLUSIVE.items():
        m[metric] = sum(spans[i][2] - spans[i][1] for i in _outermost(spans, names))
    for metric, names in SELF.items():
        m[metric] = sum(end - start - child_s[i]
                        for i, (name, start, end, _) in enumerate(spans) if name in names)
    for metric, names in CALLS.items():
        m[metric] = sum(1 for span in spans if span[0] in names)
    for metric, counter in COUNTS.items():
        m[metric] = doc["counts"].get(counter, 0)
    m["arith.spf_first_call_s"] = doc["spf_first_call_s"]
    m["arith.sigma_table_misses"] = doc["table_misses"]["arith.sigma_table"]
    m["arith.sigma_table_entries"] = doc["table_entries"]["arith.sigma_table"]
    m["arith.sl2_order_table_entries"] = doc["table_entries"]["arith.sl2_order_table"]
    m["prototypes.prototypes_enumerated"] = doc["prototypes_enumerated"]
    for suite in VERIFY_SUITES:
        m[f"verify.suite_s.{suite}"] = doc["verify_suite_s"].get(suite, 0.0)
    m["cli.import_s"] = doc["import_s"]
    m["trace.spans"] = len(spans)
    return m


def layer_metrics(docs: list[dict], traced_wall_s: float, untraced_wall_s: float
                  ) -> dict[str, float]:
    """Per-layer metrics of a run: times and counts summed over its traced
    requests; the table hit ratio over all their table calls; the overhead as
    traced wall time over untraced wall time of the same requests."""
    total = dict.fromkeys(LAYER_METRICS, 0)
    hits = misses = 0
    for doc in docs:
        for metric, value in request_metrics(doc).items():
            total[metric] += value
        for info in doc["table_cache"].values():
            hits += info["hits"]
            misses += info["misses"]
    total["arith.table_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    total["trace.overhead_ratio"] = traced_wall_s / untraced_wall_s
    return total


def _main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE_FILE -- <gothicvol argv>", file=sys.stderr)
        return 2
    trace_file, cli_argv = argv[0], argv[2:]
    start = time.perf_counter()
    import gothicvol.cli
    import_s = time.perf_counter() - start

    trace = Trace()
    trace.install()
    try:
        rc = gothicvol.cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(trace_file, "w") as fh:
            json.dump(trace.document(import_s), fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv[1:]))
