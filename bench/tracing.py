"""In-memory spans around the public functions of each wordbits layer, and a
logging handler that counts warnings instead of printing them.

One tracer records the spans of one operation.  A span records its name,
its parent, the thread it ran on, and wall-clock and thread-CPU start and
end.  Open spans are kept per thread on a stack, so the worker threads of
``annotate_corpus`` nest their own spans; a worker's outermost span takes
the main thread's innermost open span as its parent.

Self time is measured in thread CPU seconds: a span's CPU time minus the
CPU time of its children on the same thread.  Under the interpreter lock
only one thread runs Python at a time, so wall-clock self times of two pool
threads would each include the other's turns and double-count; CPU self
times partition the work.
"""

from __future__ import annotations

import itertools
import logging
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter, thread_time

from wordbits import align, pipeline, surprisal


class WarningCounter(logging.Handler):
    """Counts ``wordbits`` log records by (layer, message template)."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts = Counter()

    def emit(self, record):
        self.counts[(record.name.rsplit(".", 1)[-1], record.msg)] += 1

    @contextmanager
    def installed(self):
        logger = logging.getLogger("wordbits")
        saved = logger.propagate, logger.level
        logger.addHandler(self)
        logger.propagate = False
        logger.setLevel(logging.WARNING)
        try:
            yield self
        finally:
            logger.removeHandler(self)
            logger.propagate = saved[0]
            logger.setLevel(saved[1])


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, name, thread, t0, t1, c0, c1)
        self.counts = []  # (key, n), appended from any thread
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.outer = None  # innermost open span of the op's own thread
        self._main = None  # that thread's stack

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, after=None):
        """fn inside a span; after(result) runs outside it to count things."""
        spans, ids, stack_of = self.spans, self._ids, self._stack
        ident = threading.get_ident

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else self.outer
            sid = next(ids)
            stack.append(sid)
            main = stack is self._main
            if main:
                self.outer = sid
            c0 = thread_time()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                c1 = thread_time()
                stack.pop()
                if main:
                    self.outer = parent
                spans.append((sid, parent, name, ident(), t0, t1, c0, c1))
            if after is not None:
                after(result)
            return result
        return traced

    def count(self, key, n=1):
        self.counts.append((key, n))

    @contextmanager
    def root(self, name="op"):
        """The op's own span; pool threads hang their spans below it."""
        stack = self._main = self._stack()
        sid = next(self._ids)
        stack.append(sid)
        self.outer = sid
        c0, t0 = thread_time(), perf_counter()
        try:
            yield
        finally:
            t1, c1 = perf_counter(), thread_time()
            stack.pop()
            self.outer = self._main = None
            self.spans.append((sid, None, name, threading.get_ident(), t0, t1, c0, c1))

    def summary(self):
        """(self CPU seconds by name, wall seconds by name, calls by name,
        counts by key)."""
        child_cpu = defaultdict(float)
        thread_of = {s[0]: s[3] for s in self.spans}
        for sid, parent, _name, thread, _t0, _t1, c0, c1 in self.spans:
            if parent is not None and thread_of.get(parent) == thread:
                child_cpu[parent] += c1 - c0
        self_s = defaultdict(float)
        wall_s = defaultdict(float)
        calls = Counter()
        for sid, _parent, name, _thread, t0, t1, c0, c1 in self.spans:
            self_s[name] += (c1 - c0) - child_cpu[sid]
            wall_s[name] += t1 - t0
            calls[name] += 1
        counts = Counter()
        for key, n in self.counts:
            counts[key] += n
        return self_s, wall_s, calls, counts


def _count_rules(tracer):
    def after(words):
        for w in words:
            tracer.count("rule." + w.recovery_rule)
    return after


def _count_fallback(tracer):
    def after(seg):
        if not seg.parsed:
            tracer.count("parser_fallbacks")
    return after


def _count_links(tracer):
    def after(result):
        tracer.count("links", len(result[0]))
    return after


def _layer_patches(tracer):
    """(module, attribute, traced replacement) for the functions the
    pipeline calls by module-global name."""
    rules = _count_rules(tracer)
    table = [
        (pipeline, "standardize", "standardize.s", None),
        (pipeline, "normalize_segment", "transcripts.normalize_s", None),
        (pipeline, "annotate_segment", "annotate.segment_self_s",
         _count_fallback(tracer)),
        (pipeline, "annotate_document", "pipeline.annotate_document_s", None),
        (surprisal, "score_segment_bounded", "surprisal.bounded_s", rules),
        (surprisal, "score_sliding_window", "surprisal.window_s", rules),
        (surprisal, "score_mt", "surprisal.mt_s", rules),
        (surprisal, "subword_bits", "surprisal.subword_bits_s", None),
        (surprisal, "pseudo_bleu", "surprisal.pseudo_bleu_s", None),
        (surprisal, "realign_cascade", "surprisal.realign_s", None),
        (surprisal, "build_units", "surprisal.realign_s", None),
        (align, "subword_align", "align.subword_align_s", None),
        (align, "aggregate_to_words", "align.aggregate_s", _count_links(tracer)),
    ]
    return [(mod, attr, tracer.wrap(name, getattr(mod, attr), after))
            for mod, attr, name, after in table]


@contextmanager
def patched_layers(tracer):
    """Route the pipeline's internal layer calls through spans."""
    patches = _layer_patches(tracer)
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _fn in patches]
    for mod, attr, fn in patches:
        setattr(mod, attr, fn)
    try:
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


class TracedAdapter:
    """Forwards one adapter role's calls inside an ``adapters.call.<role>``
    span and counts replay misses."""

    _METHODS = ("score", "predict_argmax", "embed", "annotate")

    def __init__(self, inner, role, tracer):
        self.name = getattr(inner, "name", role)
        for method in self._METHODS:
            fn = getattr(inner, method, None)
            if fn is not None:
                setattr(self, method, tracer.wrap(
                    f"adapters.call.{role}", self._miss_counting(fn, tracer)))

    @staticmethod
    def _miss_counting(fn, tracer):
        def call(*args):
            try:
                return fn(*args)
            except Exception as exc:
                if "no replay entry" in str(exc):
                    tracer.count("misses")
                raise
        return call
