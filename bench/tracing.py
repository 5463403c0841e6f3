"""Spans and counters for the traced benchmark run, kept outside the package.

`Instrumentation` wraps the calls into each layer of geoshift (grammar,
groups, geometry, automaton, randomness, sft, thermo, distortion, dimension,
reports) while it is entered, and puts every original back when it exits.
The wrappers feed one `Tracer`, which keeps spans (name, start, end, parent)
and counters in memory; per-layer self time is a span's duration minus the
time covered by its child spans.

Calls made hundreds of thousands of times per iteration (length queries,
sphere enumeration steps) are timed like spans but not stored one by one;
calls made millions of times (engine multiplication, normal-form lookups,
random draws) are only counted.
"""

from __future__ import annotations

import functools
import itertools
import sys
from collections import Counter, defaultdict
from time import perf_counter

from geoshift import (automaton, dimension, distortion, geometry, grammar,
                      groups, randomness, reports, sft, thermo)

BIGINT_BOUND = 1 << 62   # ExactSampler switches to multi-word draws here


class Tracer:
    """In-memory spans, self times and counters of one traced iteration."""

    def __init__(self):
        self.spans: list = []          # (id, name, start, end, parent id)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.peaks: dict = {}
        # Self time keyed by (benchmark phase, name), so a layer's time can
        # be split by the phase that asked for it; the caller sets `phase`.
        self.phase = ""
        self.self_by_phase = defaultdict(float)
        self._stack: list = []         # [id or None, name, start, child time]
        self._next_id = 0
        self._ticks: dict = {}

    def tick(self, key: str):
        """A counter for calls made millions of times: calling the returned
        C-level function costs a fraction of a dictionary update.  `finish`
        moves the totals into `counts`."""
        return self._ticks.setdefault(key, itertools.count()).__next__

    def finish(self):
        for key, ticks in self._ticks.items():
            self.counts[key] += next(ticks)
        self._ticks.clear()

    def enter(self, name: str, record: bool = True):
        sid = None
        if record:
            sid = self._next_id
            self._next_id += 1
        self._stack.append([sid, name, perf_counter(), 0.0])

    def leave(self):
        end = perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        own = dur - child
        self.self_s[name] += own
        self.calls[name] += 1
        self.self_by_phase[(self.phase, name)] += own
        parent = next((frame[0] for frame in reversed(self._stack)
                       if frame[0] is not None), None)
        if self._stack:
            self._stack[-1][3] += dur
        if sid is not None:
            self.spans.append((sid, name, start, end, parent))

    def exclude(self, seconds: float):
        """Keep `seconds` spent outside the program (a speed sample) out of
        the self time of the innermost open span, as if it were a child."""
        if self._stack:
            self._stack[-1][3] += seconds

    def peak(self, key: str, value):
        if value > self.peaks.get(key, 0):
            self.peaks[key] = value


def _timed(tr: Tracer, name: str, fn, record: bool = True, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr.enter(name, record)
        try:
            out = fn(*args, **kwargs)
        finally:
            tr.leave()
        if after is not None:
            after(out)
        return out
    wrapper._bench_wrapper = True
    return wrapper


def _counted(tr: Tracer, key: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr.counts[key] += 1
        return fn(*args, **kwargs)
    wrapper._bench_wrapper = True
    return wrapper


def _counted_mult(tr: Tracer, fn):
    tick = tr.tick("groups.mult")

    @functools.wraps(fn)
    def mult(self, a, b):
        tick()
        return fn(self, a, b)
    mult._bench_wrapper = True
    return mult


def _nf_lookup(tr: Tracer, fn):
    lookup = tr.tick("groups.nf_lookups")
    hit = tr.tick("groups.nf_hits")

    @functools.wraps(fn)
    def from_word(self, ids):
        w = bytes(ids)
        lookup()
        if w in self._nf_cache:
            hit()
        out = fn(self, w)
        tr.peak("groups.nf_entries", len(self._nf_cache))
        return out
    from_word._bench_wrapper = True
    return from_word


def _draw(tr: Tracer, fn):
    draw = tr.tick("randomness.draws")
    bigint = tr.tick("randomness.bigint_draws")

    @functools.wraps(fn)
    def randbelow(self, bound):
        draw()
        if bound >= BIGINT_BOUND:
            bigint()
        return fn(self, bound)
    randbelow._bench_wrapper = True
    return randbelow


def _length_query(tr: Tracer, fn):
    @functools.wraps(fn)
    def __call__(self, x):
        tr.tick("distortion.length." + self.mode)()
        tr.enter("distortion.length", False)
        try:
            return fn(self, x)
        finally:
            tr.leave()
    __call__._bench_wrapper = True
    return __call__


def _enumeration(tr: Tracer, fn):
    # A generator: time each step, not the consumer's work between steps.
    step = tr.tick("automaton.enumerated")

    @functools.wraps(fn)
    def enumerate_sphere(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            tr.enter("automaton.enumerate", False)
            try:
                x = next(gen)
            except StopIteration:
                return
            finally:
                tr.leave()
            step()
            yield x
    enumerate_sphere._bench_wrapper = True
    return enumerate_sphere


class Instrumentation:
    """Context manager that installs the layer wrappers for one tracer.

    Module-level functions are replaced under every name that binds them in
    any loaded geoshift module, because the package imports names directly
    (``from .geometry import ball_tree``).  Methods are replaced on their
    class.  Exiting restores each original object, so nothing of the
    wrappers remains afterwards.
    """

    def __init__(self, tracer: Tracer):
        tr = self.tracer = tracer
        add = tr.counts.update

        def nodes(tree):
            add({"geometry.ball_nodes": len(tree.keys)})

        def states(aut):
            add({"automaton.states": aut.n_states})

        def samples(xs):
            add({"automaton.samples": len(xs)})

        def cylinders(rep):
            add({"thermo.gibbs_cylinders": rep.n_cylinders})

        self._functions = [
            (grammar, "parse_group_file",
             _timed(tr, "grammar.parse", grammar.parse_group_file)),
            (geometry, "ball_tree",
             _timed(tr, "geometry.ball_tree", geometry.ball_tree,
                    after=nodes)),
            (geometry, "word_length",
             _timed(tr, "geometry.word_length", geometry.word_length,
                    record=False)),
            (automaton, "build_geodesic_automaton",
             _timed(tr, "automaton.build", automaton.build_geodesic_automaton,
                    after=states)),
            (automaton, "_candidate",
             _counted(tr, "automaton.levels_tried", automaton._candidate)),
            (automaton, "_validate_against_tree",
             _timed(tr, "automaton.validate",
                    automaton._validate_against_tree)),
            (automaton, "sample_uniform_sphere",
             _timed(tr, "automaton.sample", automaton.sample_uniform_sphere,
                    after=samples)),
            (automaton, "enumerate_sphere",
             _enumeration(tr, automaton.enumerate_sphere)),
            (sft, "components", _timed(tr, "sft.components", sft.components)),
            (thermo, "parry_gibbs_measure",
             _timed(tr, "thermo.parry", thermo.parry_gibbs_measure)),
            (thermo, "check_variational",
             _timed(tr, "thermo.variational", thermo.check_variational)),
            (thermo, "gibbs_ratio_scan",
             _timed(tr, "thermo.gibbs_scan", thermo.gibbs_ratio_scan,
                    after=cylinders)),
            (thermo, "growth_rate",
             _timed(tr, "thermo.growth_rate", thermo.growth_rate)),
            (distortion, "mean_distortion_exact",
             _timed(tr, "distortion.exact", distortion.mean_distortion_exact)),
            (distortion, "mean_distortion_mc",
             _timed(tr, "distortion.mc", distortion.mean_distortion_mc)),
            (distortion, "lln_check",
             _timed(tr, "distortion.lln", distortion.lln_check)),
            (distortion, "rough_similarity_scan",
             _timed(tr, "distortion.scan", distortion.rough_similarity_scan)),
            (dimension, "drift",
             _timed(tr, "dimension.drift", dimension.drift)),
            (dimension, "ps_dimension_estimate",
             _timed(tr, "dimension.estimate",
                    dimension.ps_dimension_estimate)),
            (dimension, "_walk",
             _counted(tr, "dimension.rays", dimension._walk)),
            (reports, "render_report",
             _timed(tr, "reports.render", reports.render_report)),
        ]
        length = distortion._ForeignLength
        self._methods = [
            (length, "__init__",
             _timed(tr, "distortion.length_init", length.__init__)),
            (length, "__call__", _length_query(tr, length.__call__)),
            (randomness.ExactSampler, "randbelow",
             _draw(tr, randomness.ExactSampler.randbelow)),
            (groups._DehnEngine, "from_word",
             _nf_lookup(tr, groups._DehnEngine.from_word)),
        ]
        for cls in (groups._FreeEngine, groups._FiniteEngine,
                    groups._FreeProductEngine, groups._DehnEngine):
            self._methods.append((cls, "mult", _counted_mult(tr, cls.mult)))
        self._saved: list = []

    def __enter__(self) -> Tracer:
        mods = package_modules()
        for home, name, wrapper in self._functions:
            orig = getattr(home, name)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for cls, name, wrapper in self._methods:
            self._saved.append((cls, name, cls.__dict__[name]))
            setattr(cls, name, wrapper)
        return self.tracer

    def __exit__(self, *exc):
        while self._saved:
            owner, key, orig = self._saved.pop()
            setattr(owner, key, orig)
        self.tracer.finish()
        return False


def package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == "geoshift" or name.startswith("geoshift."))]
