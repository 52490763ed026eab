"""In-memory spans and work counters for the traced benchmark run.

The tracer replaces public toruskit functions, at the module attribute
where each caller looks them up, with wrappers that record a span
(name, start, end, parent) per call.  Nothing under ``src/`` is changed:
``install`` patches the attributes and ``uninstall`` restores them.

A span's self time is its duration minus the durations of its direct
children; spans nest strictly because every call is synchronous.  All
bindings of one function share one name, named after the module that
defines it, so ``clusters.mu`` and ``spacetime.mu`` both count as
``lattice.mu``.
"""

from __future__ import annotations

import importlib
import time
from pathlib import Path


def _count(counters, name, amount):
    counters[name] = counters.get(name, 0) + amount


def _links_accepted(counters, args, result):
    _count(counters, "clusters.links_accepted", int(bool(result)))


def _pairs_checked(counters, args, result):
    _count(counters, "clusters.pairs_checked", result.pairs_checked)


def _path_search(counters, args, result):
    _count(counters, "search.expanded", result.expanded)
    _count(counters, "search.truncated_components", int(result.truncated))


def _sites(counters, args, result):
    _count(counters, "spacetime.sites", len(result))


def _pairs(counters, args, result):
    _count(counters, "spacetime.pairs", result.pair_count)


def _entries(counters, args, result):
    _count(counters, "homological.entries", len(result.entries))


def _bytes_written(counters, args, result):
    # The report file carries wall-clock meta, so its size is not a stable
    # count; every other output file is a pure function of the config.
    path, text = args[0], args[1]
    if not Path(path).name.startswith("report-"):
        _count(counters, "runner.bytes_written", len(text.encode()))


# (span name, bindings "module:attribute" where callers look the function
# up, hook reading work counts from the arguments and result).  A name may
# repeat when its bindings need different hooks.
BINDINGS = (
    ("lattice.mu", ("clusters:mu", "spacetime:mu", "homological:mu",
                    "lattice:mu"), None),
    ("lattice.bilinear", ("spacetime:bilinear", "lattice:bilinear"), None),
    ("lattice.gram_det_identity", ("runner:gram_det_identity",), None),
    ("lattice.new_lattice", ("runner:new_lattice", "config:new_lattice"), None),
    ("exact.det", ("exact:det",), None),
    ("exact.compound", ("exact:compound",), None),
    ("exact.mat_inverse", ("exact:mat_inverse",), None),
    ("exact.mat_rank", ("exact:mat_rank",), None),
    ("exact.le_pow", ("exact:le_pow",), None),
    ("exact.ge_pow", ("exact:ge_pow",), None),
    ("clusters.build_partition", ("runner:build_partition",), None),
    ("clusters.relation_link", ("clusters:relation_link",
                                "runner:relation_link"), _links_accepted),
    ("clusters.verify_cluster_properties",
     ("runner:verify_cluster_properties",), _pairs_checked),
    ("clusters.ClusterPartition.from_dict",
     ("clusters:ClusterPartition.from_dict",), None),
    ("search.longest_path", ("spacetime:longest_path", "clusters:longest_path"),
     _path_search),
    ("search.connected_components", ("search:connected_components",), None),
    ("spacetime.enumerate_singular_sites",
     ("spacetime:enumerate_singular_sites",), _sites),
    ("spacetime.enumerate_singular_chains",
     ("runner:enumerate_singular_chains",), None),
    ("spacetime.chain_pair_bounds", ("runner:chain_pair_bounds",), _pairs),
    ("spacetime.chain_det_identity", ("runner:chain_det_identity",), None),
    ("homological.solve_homological", ("runner:solve_homological",), None),
    ("homological.homological_residual", ("runner:homological_residual",), None),
    ("homological.dn_split", ("runner:dn_split",), None),
    ("homological.decay_profile", ("runner:decay_profile",), None),
    ("homological.random_cross_cluster_matrix",
     ("runner:random_cross_cluster_matrix",), _entries),
    ("runner.run_experiment", ("runner:run_experiment",), None),
    ("runner.cached", ("runner:cached",), None),
    ("runner.write", ("runner:atomic_write_text",), _bytes_written),
    ("runner.write", ("runner:atomic_write_json",), None),
    ("config.normalize", ("config:normalize",), None),
)

# Functions whose call counts are reported; every function reports its
# self time.
COUNTED = ("lattice.mu", "lattice.bilinear", "exact.det", "exact.compound",
           "exact.le_pow", "exact.ge_pow", "clusters.build_partition",
           "clusters.relation_link", "search.longest_path",
           "spacetime.chain_pair_bounds", "spacetime.chain_det_identity")

# Counters every traced call reports, zero when the layer does not run.
COUNTERS = ("clusters.links_accepted", "clusters.pairs_checked",
            "search.expanded", "search.truncated_components",
            "spacetime.sites", "spacetime.pairs", "homological.entries",
            "runner.cache_hits", "runner.cache_misses",
            "runner.bytes_written")


class Tracer:
    """Records spans and counters while installed; ``take`` drains them."""

    def __init__(self):
        self.names = list(dict.fromkeys(name for name, _, _ in BINDINGS))
        self.spans = []
        self.counters = {}
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, hook):
        index = self.names.index(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent)
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def _cache_probe(self, fn):
        """Tell hits from misses by whether ``cached`` runs its compute."""
        counters = self.counters

        def probe(tag, payload, compute, enabled):
            ran = []

            def compute_once():
                ran.append(True)
                return compute()

            result = fn(tag, payload, compute_once, enabled)
            if enabled:
                _count(counters,
                       "runner.cache_misses" if ran else "runner.cache_hits", 1)
            return result

        return probe

    def install(self):
        for name, bindings, hook in BINDINGS:
            for binding in bindings:
                module_name, attr = binding.split(":")
                owner = importlib.import_module(f"toruskit.{module_name}")
                *path, attr = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                if name == "runner.cached":
                    fn = self._cache_probe(fn)
                wrapped = self._wrap(name, fn, hook)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                setattr(owner, attr, wrapped)
                self._patches.append((owner, attr, raw))

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def take(self):
        """Per-name calls and self seconds, counters and raw spans; resets."""
        if self._stack:
            raise RuntimeError("take() inside an open span")
        spans = list(self.spans)
        child_time = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = {name: 0 for name in self.names}
        self_s = {name: 0.0 for name in self.names}
        for slot, (index, start, end, _) in enumerate(spans):
            name = self.names[index]
            calls[name] += 1
            self_s[name] += end - start - child_time[slot]
        counters = {name: self.counters.get(name, 0) for name in COUNTERS}
        self.spans.clear()
        self.counters.clear()
        return {"calls": calls, "self_s": self_s, "counters": counters,
                "spans": spans}
