"""Outside-in tracing of qtsetlin for the benchmark's traced run.

`install()` wraps the coarse entry points of each qtsetlin module, and the
`Matrix` methods, from here: every `qtsetlin.*` module attribute that refers
to a wrapped function is replaced, so nothing under src/ changes.  A wrapped
call records a span (id, parent id, name, start, end) in memory; the child
process writes the spans out when the command ends, and `layer_metrics`
turns them into the per-layer metrics in the parent.

Helpers called up to ~10^5 times per command (`q_int`, `p_k`, `kappa_perm`,
`insert_line`, `span_basis`, ...) get no span: their time counts to the
calling span.  `insert_line` is only counted.  Per-state `inv`,
`lrm_positions` and `q_factorial` (about 5,000 calls each on the perm n=7
closed form) do get spans, so that `combinatorics.self_s` sees closed-form
work.
"""

import importlib
import time

# (module, attribute, group).  A name with a dot is a method of a class in
# that module.  `group` names a stage whose time is reported on its own;
# None means the span only feeds its layer's self time.
ENTRY_POINTS = [
    ("exact", "Matrix.__init__", "dense"),
    ("exact", "Matrix.zeros", "dense"),
    ("exact", "Matrix.identity", "dense"),
    ("exact", "Matrix.__add__", "dense"),
    ("exact", "Matrix.__sub__", "dense"),
    ("exact", "Matrix.__mul__", "dense"),
    ("exact", "Matrix.__rmul__", "dense"),
    ("exact", "Matrix.transpose", "dense"),
    ("exact", "mat_mul", "matmul"),
    ("exact", "vec_mat", "matmul"),
    ("exact", "rank_nullity", "elim"),
    ("exact", "null_space", "elim"),
    ("exact", "left_null_space", "elim"),
    ("combinatorics", "inv", None),
    ("combinatorics", "lrm_positions", None),
    ("combinatorics", "q_factorial", None),
    ("combinatorics", "perm_states", None),
    ("combinatorics", "word_states", None),
    ("combinatorics", "enumerate_upper_sets", None),
    ("combinatorics", "linear_extensions", None),
    ("combinatorics", "poset_derangements", None),
    ("combinatorics", "derangement", None),
    ("combinatorics", "q_derangement", None),
    ("hecke_chains", "hecke_generator_perm", None),
    ("hecke_chains", "hecke_generator_word", None),
    ("hecke_chains", "weight_op_perm", None),
    ("hecke_chains", "weight_op_word", None),
    ("hecke_chains", "_shuffle_sum", None),
    ("hecke_chains", "transition_matrix_perm", None),
    ("hecke_chains", "transition_matrix_word", None),
    ("flags", "enumerate_lines", "build"),
    ("flags", "enumerate_flags", "build"),
    ("flags", "hecke_generator_coset", "build"),
    ("flags", "weight_op_flags", "build"),
    ("flags", "transition_matrix_flags", "build"),
    ("flags", "transition_matrix_flags_hecke", "build"),
    ("flags", "lrb_product", "path"),
    ("flags", "rcayley_stationary", "path"),
    ("stationary", "stationary_perm_formula", "formula"),
    ("stationary", "stationary_word_formula", "formula"),
    ("stationary", "stationary_flags_formula", "formula"),
    ("stationary", "classical_tsetlin_stationary", "formula"),
    ("stationary", "stationary_oracle", "oracle"),
    ("stationary", "StationaryVector.is_left_eigenvector", "check"),
    ("spectra", "eigen_catalog_perm", "catalog"),
    ("spectra", "eigen_catalog_word", "catalog"),
    ("spectra", "eigen_catalog_flags", "catalog"),
    ("spectra", "verify_multiplicities", "multiplicity"),
    ("spectra", "verify_annihilation", "annihilation"),
    ("spectra", "generic_perm_rates", None),
    ("spectra", "generic_word_rates", None),
    ("lumping", "proj_flags_to_perms", None),
    ("lumping", "incl_perms_to_flags", None),
    ("lumping", "proj_perms_to_words", None),
    ("lumping", "incl_words_to_perms", None),
    ("lumping", "map_rates_perm_to_word", None),
    ("lumping", "map_rates_word_to_perm", None),
    ("lumping", "check_commuting", None),
    ("suites", "run_suite", None),
    ("suites", "suite_matrix", "matrix"),
    ("suites", "suite_stationary", "stationary"),
    ("suites", "suite_spectra", "spectra"),
    ("suites", "suite_lumping", "lumping"),
    ("suites", "suite_hecke", "hecke"),
    ("suites", "suite_q1", "q1-reduction"),
    ("suites", "suite_properties", "properties"),
    ("cli", "main", None),
    ("cli", "cmd_matrix", None),
    ("cli", "cmd_stationary", None),
    ("cli", "cmd_spectrum", None),
    ("cli", "cmd_lump_check", None),
    ("cli", "cmd_verify", None),
]

SCAN = "trace.scan"


class Tracer:
    """Span recorder; one per traced child process."""

    def __init__(self):
        self.spans = []
        self.stack = [0]
        self.next_id = 1
        self.counters = {
            "flags.insert_calls": 0,
            "flags.states": 0,
            "flags.nnz": 0,
            "hecke_chains.states": 0,
            "hecke_chains.nnz": 0,
            "exact.max_entry_bits": 0,
            "spectra.annihilation_factors": 0,
            "suites.checks": 0,
        }

    def _new_id(self):
        sid = self.next_id
        self.next_id += 1
        return sid

    def wrap(self, name, fn, after=None):
        """`fn` with a span named `name` around each call (no span when
        `name` is None).  `after(result, args)` runs outside that span, under
        a `trace.scan` span that no layer owns."""
        clock = time.perf_counter
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                sid = self._new_id()
                stack.append(sid)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans.append((sid, stack[-1], name, start, end))
            if after is not None:
                scan_start = clock()
                after(result, args)
                spans.append((self._new_id(), stack[-1], SCAN, scan_start, clock()))
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, key, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # Size counters, computed outside the spans they describe.

    def _operator_sizes(self, layer):
        counters = self.counters

        def after(op, args):
            counters[layer + ".states"] += len(op.states)
            counters[layer + ".nnz"] += sum(1 for row in op.matrix.data for x in row if x)

        return after

    def _entry_bits(self, pivots, args):
        rows = args[0]
        best = max((abs(v).bit_length() for row in rows for v in row), default=0)
        if best > self.counters["exact.max_entry_bits"]:
            self.counters["exact.max_entry_bits"] = best

    def _annihilation_factors(self, result, args):
        self.counters["spectra.annihilation_factors"] += len({e.value for e in args[1]})

    def _suite_checks(self, checks, args):
        self.counters["suites.checks"] += len(checks)


def _replace(modules, original, replacement):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install():
    """Wrap qtsetlin's entry points in place and return the Tracer."""
    tracer = Tracer()
    names = {m for m, _, _ in ENTRY_POINTS}
    modules = {m: importlib.import_module(f"qtsetlin.{m}") for m in names}
    modules["__init__"] = importlib.import_module("qtsetlin")
    afters = {
        ("hecke_chains", "transition_matrix_perm"): tracer._operator_sizes("hecke_chains"),
        ("hecke_chains", "transition_matrix_word"): tracer._operator_sizes("hecke_chains"),
        ("flags", "transition_matrix_flags"): tracer._operator_sizes("flags"),
        ("flags", "transition_matrix_flags_hecke"): tracer._operator_sizes("flags"),
        ("spectra", "verify_annihilation"): tracer._annihilation_factors,
        ("suites", "run_suite"): tracer._suite_checks,
    }
    for module, attr, _ in ENTRY_POINTS:
        name = f"{module}.{attr}"
        owner = modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(cls, meth, tracer.wrap(name, raw))
            continue
        original = getattr(owner, attr)
        _replace(modules.values(), original, tracer.wrap(name, original, afters.get((module, attr))))
    exact = modules["exact"]
    echelon = exact._echelon
    _replace(modules.values(), echelon, tracer.wrap(None, echelon, tracer._entry_bits))
    flags = modules["flags"]
    _replace(modules.values(), flags.insert_line, tracer.count("flags.insert_calls", flags.insert_line))
    return tracer


def metric_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for module, _, group in ENTRY_POINTS:
        units[f"{module}.self_s"] = "s"
        if group is not None:
            units[f"{module}.{group}_s"] = "s"
    for group in ("dense", "matmul", "elim"):
        units[f"exact.{group}_calls"] = "count"
    units["lumping.checks"] = "count"
    for key in Tracer().counters:
        units[key] = "count"
    return units


SELF_TIME_GROUPS = {("exact", "dense"), ("exact", "matmul"), ("exact", "elim")}


def layer_metrics(spans, counters):
    """Per-layer metrics of one traced command.

    `<layer>.self_s` and the three `exact.<group>_s` are self times: span
    duration minus the time of its child spans.  Every other
    `<layer>.<group>_s` is the inclusive time of the group's outermost calls.
    """
    info = {f"{m}.{a}": (m, g) for m, a, g in ENTRY_POINTS}
    metrics = {name: 0 for name in metric_units()}
    metrics.update(counters)
    by_id = {}
    child_time = {}
    for sid, parent, name, start, end in spans:
        by_id[sid] = (parent, name, end - start)
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    for sid, (parent, name, duration) in by_id.items():
        if name == SCAN:
            continue
        layer, group = info[name]
        self_time = duration - child_time.get(sid, 0.0)
        metrics[f"{layer}.self_s"] += self_time
        if group is None:
            continue
        if (layer, group) in SELF_TIME_GROUPS:
            metrics[f"{layer}.{group}_s"] += self_time
            metrics[f"{layer}.{group}_calls"] += 1
        elif not _has_ancestor_in(by_id, info, parent, layer, group):
            metrics[f"{layer}.{group}_s"] += duration
    metrics["lumping.checks"] = sum(1 for _, n, _ in by_id.values() if n == "lumping.check_commuting")
    return metrics


def _has_ancestor_in(by_id, info, sid, layer, group):
    while sid in by_id:
        parent, name, _ = by_id[sid]
        if name != SCAN and info[name] == (layer, group):
            return True
        sid = parent
    return False
