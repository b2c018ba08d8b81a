"""Spans and counts for the traced run, recorded from the benchmark's side.

Each traced function is replaced at every place callers look it up: the
module attributes of the ``wordlogic`` package that hold it, or the class
attribute for a method.  A call made while a job runs opens a frame; its
self time is its duration minus the time of traced calls inside it.
Functions called thousands of times per job (marked hot in ``TARGETS``) are
only summed into counters; every other call is also kept as a span with its
parent, and the spans are written out as JSON when the run ends.
"""

import sys
import time
from collections import defaultdict


def _count_marked(args, kwargs):
    alphabet, context, maxlen = (list(args) + [None] * 3)[:3]
    alphabet = kwargs.get("alphabet", alphabet)
    context = tuple(kwargs.get("context", context))
    maxlen = kwargs.get("maxlen", maxlen)
    k = len(tuple(alphabet))
    start = 1 if context else 0
    return sum(k ** n * n ** len(context) for n in range(start, maxlen + 1))


def _table_words(args, kwargs):
    lang = args[0] if args else kwargs["lang"]
    k = len(tuple(lang.alphabet))
    return sum(k ** n for n in range(lang.bound + 1))


# (module, attribute path, hot, {size metric: f(args, kwargs, result)})
TARGETS = (
    ("logic", "satisfies", True, {}),
    ("logic", "models", False, {}),
    ("logic", "formula_dfa", False, {}),
    ("regular", "dfa_from_bounded", False,
     {"table_words": lambda a, k, r: _table_words(a, k),
      "states": lambda a, k, r: r.n}),
    ("regular", "Dfa.product", True, {}),
    ("regular", "Dfa.minimize", True, {}),
    ("regular", "Dfa.accepts", True, {}),
    ("regular", "syntactic_stamp", False, {}),
    ("regular", "syntactic_stamp_of_family", False, {}),
    ("regular", "generate_monoid", False,
     {"elements": lambda a, k, r: len(r[0])}),
    ("regular", "quotient_closure", False, {}),
    ("finba", "generate", False, {"atoms": lambda a, k, r: len(r.atoms)}),
    ("substitution", "delta_algebra", False, {}),
    ("substitution", "check_substitution_principle", False, {}),
    ("substitution", "gamma_odot", False, {}),
    ("varcode", "lift_delta", False, {}),
    ("varcode", "roundtrip_check", False, {}),
    ("semidirect", "compile_layer", False, {}),
    ("semidirect", "transfer_dfa", False, {"states": lambda a, k, r: r.n}),
    ("semidirect", "decompose", False, {}),
    ("semidirect", "eta_quotient", False,
     {"s_elements": lambda a, k, r: len(r.s_mon)}),
    ("semidirect", "h_morphism", False, {}),
    ("semidirect", "verify_recognizer", False, {}),
    ("layers", "depth_fragment", False, {}),
    ("layers", "depth_direct", False, {}),
)

#: counted from the arguments only: a generator's work is done by its
#: consumer, whose span already holds the time
COUNTED = (("words", "enumerate_marked", "words.marked_words", _count_marked),)

#: per-layer metrics printed by a traced run, in BENCHMARK.json order
LAYER_METRICS = (
    ("logic.satisfies.calls", "count"),
    ("logic.satisfies.self_s", "s"),
    ("logic.models.self_s", "s"),
    ("logic.formula_dfa.self_s", "s"),
    ("words.marked_words", "count"),
    ("regular.dfa_from_bounded.self_s", "s"),
    ("regular.dfa_from_bounded.calls", "count"),
    ("regular.dfa_from_bounded.table_words", "count"),
    ("regular.dfa_from_bounded.states", "count"),
    ("regular.Dfa.product.calls", "count"),
    ("regular.Dfa.product.self_s", "s"),
    ("regular.Dfa.minimize.calls", "count"),
    ("regular.Dfa.minimize.self_s", "s"),
    ("regular.Dfa.accepts.calls", "count"),
    ("regular.Dfa.accepts.self_s", "s"),
    ("regular.syntactic_stamp.self_s", "s"),
    ("regular.syntactic_stamp_of_family.self_s", "s"),
    ("regular.generate_monoid.self_s", "s"),
    ("regular.generate_monoid.elements", "count"),
    ("regular.quotient_closure.self_s", "s"),
    ("finba.generate.self_s", "s"),
    ("finba.generate.atoms", "count"),
    ("substitution.delta_algebra.self_s", "s"),
    ("substitution.check_substitution_principle.self_s", "s"),
    ("substitution.gamma_odot.self_s", "s"),
    ("varcode.lift_delta.self_s", "s"),
    ("varcode.roundtrip_check.self_s", "s"),
    ("semidirect.compile_layer.self_s", "s"),
    ("semidirect.transfer_dfa.self_s", "s"),
    ("semidirect.transfer_dfa.states", "count"),
    ("semidirect.decompose.self_s", "s"),
    ("semidirect.eta_quotient.self_s", "s"),
    ("semidirect.eta_quotient.s_elements", "count"),
    ("semidirect.h_morphism.self_s", "s"),
    ("semidirect.verify_recognizer.self_s", "s"),
    ("layers.depth_fragment.self_s", "s"),
    ("layers.depth_direct.self_s", "s"),
)


class Tracer:
    def __init__(self):
        self.active = False
        self.frames = []         # [child seconds, span index or None]
        self.spans = []          # dicts, parent by index
        self.job = None
        self.job_self = defaultdict(float)   # raw self seconds, this job
        self.self_s = defaultdict(float)     # scaled self seconds, all jobs
        self.counts = defaultdict(int)
        self.top_s = 0.0         # raw seconds inside top-level traced calls
        self.missing = []

    # -- installing ---------------------------------------------------------

    def install(self, package):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == package.__name__
                or name.startswith(package.__name__ + ".")}
        for modname, path, hot, sizes in TARGETS:
            self._patch(mods, package.__name__, modname, path,
                        lambda fn, name: self._timed(fn, name, hot, sizes))
        for modname, path, metric, count in COUNTED:
            self._patch(mods, package.__name__, modname, path,
                        lambda fn, name: self._counted(fn, metric, count))

    def _patch(self, mods, package, modname, path, make):
        mod = mods.get(f"{package}.{modname}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        orig = getattr(owner, attr, None) if owner is not None else None
        if orig is None:
            self.missing.append(f"{modname}.{path}")
            return
        wrapper = make(orig, f"{modname}.{path}")
        if owner_name:
            setattr(owner, attr, wrapper)
            return
        for m in mods.values():
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapper)

    # -- wrappers -------------------------------------------------------------

    def _timed(self, fn, name, hot, sizes):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frames = tracer.frames
            span = None
            if not hot:
                parent = next((f[1] for f in reversed(frames)
                               if f[1] is not None), None)
                span = len(tracer.spans)
                tracer.spans.append({"name": name, "job": tracer.job,
                                     "parent": parent})
            frame = [0.0, span]
            frames.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                frames.pop()
                if frames:
                    frames[-1][0] += dur
                else:
                    tracer.top_s += dur
                tracer.job_self[name] += dur - frame[0]
                tracer.counts[name + ".calls"] += 1
                if span is not None:
                    tracer.spans[span].update(start=t0, seconds=dur)
            for metric, size in sizes.items():
                tracer.counts[f"{name}.{metric}"] += size(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, metric, count):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[metric] += count(args, kwargs)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per job ----------------------------------------------------------------

    def start_job(self, job_seq):
        self.job = job_seq
        self.job_self.clear()
        self.active = True

    def stop_job(self):
        self.active = False

    def finish_job(self, scale):
        """Fold the job's raw self times in, scaled like its job time."""
        for name, raw in self.job_self.items():
            self.self_s[name] += raw * scale
        self.job_self.clear()

    def layer_metrics(self, rounds):
        """Per-round values of LAYER_METRICS."""
        out = {}
        for metric, unit in LAYER_METRICS:
            if metric.endswith(".self_s"):
                value = self.self_s.get(metric[:-len(".self_s")], 0.0)
            else:
                value = self.counts.get(metric, 0)
            out[metric] = {"value": value / rounds, "unit": unit}
        return out
