"""Per-layer tracing from outside the library.

`install` replaces the public functions named in LAYER_SPANS with wrappers
that record self time (a span's duration minus the time its traced children
took) and a few size counts; `uninstall` puts the originals back.  The
wrappers are patched into every ctxlib module that imported the function by
name, so calls between modules are seen too.  Nothing inside src/ctxlib is
edited.
"""

import time
from collections import defaultdict
from fractions import Fraction

# (module, attribute, metric) for every timed public function.  Several
# functions may share one metric; their self times add up.
LAYER_SPANS = [
    ("cli", "main", "cli.main_s"),
    ("cli", "_load", "cli.load_s"),
    ("cli", "load_scenario", "cli.load_s"),
    ("cli", "load_model", "cli.load_s"),
    ("cli", "load_morphism", "cli.load_s"),
    ("events", "global_sections", "events.global_sections_s"),
    ("events", "event_presheaf", "events.event_presheaf_s"),
    ("events", "mapping_event_scenario", "events.mapping_event_scenario_s"),
    ("events", "elements", "events.elements_s"),
    ("events", "validate_event_scenario", "events.validate_event_scenario_s"),
    ("bundles", "to_event", "bundles.to_event_s"),
    ("bundles", "mapping_bundle_scenario", "bundles.mapping_bundle_scenario_s"),
    ("bundles", "validate_bundle", "bundles.validate_bundle_s"),
    ("solve", "lp_feasible", "solve.lp_feasible_s"),
    ("solve", "check_contextuality", "solve.check_contextuality_s"),
    ("solve", "validate_empirical", "solve.validate_empirical_s"),
    ("solve", "verify_certificate", "solve.verify_s"),
    ("solve", "verify_witness", "solve.verify_s"),
    ("solve", "check_contextuality_simplicial",
     "solve.check_contextuality_simplicial_s"),
    ("solve", "decompose_noncontextual", "solve.decompose_noncontextual_s"),
    ("sset", "nerve_bundle", "sset.nerve_bundle_s"),
    ("sset", "mapping_simplicial", "sset.mapping_simplicial_s"),
    ("sset", "pullback_along_simplex", "sset.pullback_along_simplex_s"),
    ("sset", "enumerate_sset_maps", "sset.enumerate_sset_maps_s"),
    ("sset", "sections", "sset.sections_s"),
    ("sset", "validate_simplicial_distribution",
     "sset.validate_simplicial_distribution_s"),
    ("sset", "compare_nerve_mapping", "sset.compare_nerve_mapping_s"),
    ("dist", "pushforward", "dist.pushforward_s"),
    ("dist", "mixture", "dist.mixture_s"),
]

# Metrics that are counts per pass rather than seconds, with their units.
COUNTS = {
    "cli.output_bytes": "bytes",
    "events.global_sections": "count",
    "events.mapping_outcomes": "count",
    "complexes.simplices_in": "count",
    "solve.lp_calls": "count",
    "solve.lp_rows": "count",
    "solve.lp_cols": "count",
    "solve.lp_nonzeros": "count",
    "sset.mapping_simplices": "count",
    "sset.sections": "count",
    "dist.dists_built": "count",
}

# Maxima rather than sums.
MAXIMA = {"solve.coef_max_bits": "bits"}

MODULES = ("cli", "events", "complexes", "bundles", "solve", "sset", "dist",
           "laws", "rand")


def _bits(values):
    best = 0
    for v in values:
        q = Fraction(v)
        best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
    return best


class Tracer:
    """Self-time and count collector for one process."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.patches = []
        self._stack = []

    def span(self, metric, fn, after=None):
        """Wrap fn so its self time lands in metric; after(tracer, args,
        result) may record counts."""
        stack = self._stack
        self_s = self.self_s

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                stack.pop()
                self_s[metric] += spent - frame[0]
                if stack:
                    stack[-1][0] += spent
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", metric)
        return wrapper

    def snapshot(self):
        """Plain dict of everything recorded so far."""
        return {"self_s": dict(self.self_s), "counts": dict(self.counts),
                "maxima": dict(self.maxima)}


def _after_global_sections(tr, args, result):
    tr.counts["events.global_sections"] += len(result)


def _after_mapping_event(tr, args, result):
    mapped, _ = result
    tr.counts["events.mapping_outcomes"] += sum(
        len(v) for v in mapped.sets.values())


def _after_lp(tr, args, result):
    prob = args[0]
    tr.counts["solve.lp_calls"] += 1
    tr.counts["solve.lp_rows"] += len(prob.A)
    tr.counts["solve.lp_cols"] += prob.ncols
    tr.counts["solve.lp_nonzeros"] += sum(1 for row in prob.A
                                          for v in row if v)
    tr.maxima["solve.coef_max_bits"] = max(tr.maxima["solve.coef_max_bits"],
                                           _bits(result[1]))


def _after_mapping_simplicial(tr, args, result):
    tr.counts["sset.mapping_simplices"] += sum(
        len(v) for v in result.sset.simp.values())


def _after_sections(tr, args, result):
    tr.counts["sset.sections"] += len(result)


AFTER = {
    "global_sections": _after_global_sections,
    "mapping_event_scenario": _after_mapping_event,
    "lp_feasible": _after_lp,
    "mapping_simplicial": _after_mapping_simplicial,
    "sections": _after_sections,
}


def _patches_everywhere(modules, original, replacement):
    return [(mod, attr, original, replacement)
            for mod in modules for attr, value in vars(mod).items()
            if value is original]


def _patches(tracer):
    """(owner, attribute, original, wrapper) for every function to wrap in
    the loaded ctxlib modules."""
    import importlib
    mods = {name: importlib.import_module("ctxlib." + name)
            for name in MODULES}
    everywhere = list(mods.values())
    patches = []
    for modname, attr, metric in LAYER_SPANS:
        original = getattr(mods[modname], attr)
        wrapped = tracer.span(metric, original, AFTER.get(attr))
        patches.extend(_patches_everywhere(everywhere, original, wrapped))

    cpx_cls = mods["complexes"].SimplicialComplex
    cpx_init = tracer.span("complexes.SimplicialComplex_s",
                           cpx_cls.__init__)

    def complex_init(self, maximal, *args, **kwargs):
        maximal = list(maximal)
        tracer.counts["complexes.simplices_in"] += len(maximal)
        cpx_init(self, maximal, *args, **kwargs)

    patches.append((cpx_cls, "__init__", cpx_cls.__init__, complex_init))

    dist_cls = mods["dist"].Dist
    dist_init = dist_cls.__init__

    def counted_dist_init(self, weights):
        tracer.counts["dist.dists_built"] += 1
        dist_init(self, weights)

    patches.append((dist_cls, "__init__", dist_init, counted_dist_init))

    cli = mods["cli"]
    emit = cli._emit

    def counted_emit(obj, out):
        import json
        tracer.counts["cli.output_bytes"] += len(
            json.dumps(obj, indent=2, sort_keys=True)) + 1
        emit(obj, out)

    patches.append((cli, "_emit", emit, counted_emit))
    return patches


def install(tracer):
    """Wrap the layers' public functions in every loaded ctxlib module.
    Installing again after uninstall reuses the same wrappers."""
    if not tracer.patches:
        tracer.patches = _patches(tracer)
    for owner, attr, _, wrapper in tracer.patches:
        setattr(owner, attr, wrapper)
    return tracer


def uninstall(tracer):
    """Put the original functions back."""
    for owner, attr, original, _ in tracer.patches:
        setattr(owner, attr, original)


def metric_names():
    """Every per-layer metric this module can report, with its unit."""
    out = {metric: "s" for _, _, metric in LAYER_SPANS}
    out["complexes.SimplicialComplex_s"] = "s"
    out.update(COUNTS)
    out.update(MAXIMA)
    return out


def merge(snapshots):
    """Add up snapshots from several processes."""
    total = {"self_s": defaultdict(float), "counts": defaultdict(int),
             "maxima": defaultdict(int)}
    for snap in snapshots:
        for key, v in snap["self_s"].items():
            total["self_s"][key] += v
        for key, v in snap["counts"].items():
            total["counts"][key] += v
        for key, v in snap["maxima"].items():
            total["maxima"][key] = max(total["maxima"][key], v)
    return total
