"""Span tracing of the program's layers, installed from outside.

``Tracer.install()`` replaces each traced function at the names its callers
look it up by (a module attribute or a class attribute) with a wrapper that
records a span: name, start, end and the index of the enclosing span.
``remove()`` puts the originals back.  Nothing under ``src/`` changes.
Spans stay in memory until ``write()``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import Counter

import casetag.cli
import casetag.corpus
import casetag.ner
import casetag.nn.layers
import casetag.nn.optim
import casetag.nn.serialize
import casetag.truecaser

# casetag.nn re-exports a function named ``tensor`` over its submodule's name
_tensor = importlib.import_module("casetag.nn.tensor")

# (owner, attribute, span name).  Owners are the modules or classes whose
# attribute the caller reads at call time: ``train_ner`` calls ``crf_nll``
# through ``casetag.ner``'s globals, so that is where the wrapper goes.
TARGETS = [
    (_tensor.Tensor, "backward", "nn.backward"),
    (_tensor, "_toposort", "nn.toposort"),
    (casetag.nn.layers.LSTMCell, "run", "nn.lstm_run"),
    (casetag.nn.layers.CharCNN, "__call__", "nn.charcnn"),
    (casetag.nn.optim.Adam, "step", "nn.adam_step"),
    (casetag.truecaser, "clip_global_norm", "nn.clip"),
    (casetag.ner, "clip_global_norm", "nn.clip"),
    (casetag.nn.serialize.Container, "save", "nn.container_save"),
    (casetag.nn.serialize.Container, "load", "nn.container_load"),
    (casetag.ner, "crf_nll", "crf.nll"),
    (casetag.ner, "viterbi_decode", "crf.viterbi"),
    (casetag.truecaser.Truecaser, "logits", "truecaser.logits"),
    (casetag.truecaser.Truecaser, "distributions", "truecaser.distributions"),
    (casetag.ner.NerModel, "emissions", "ner.emissions"),
    # train_ner's dev evaluation; eval-ner reaches evaluate_ner through
    # casetag.cli and is timed by its command span instead
    (casetag.ner, "evaluate_ner", "ner.dev_eval"),
    (casetag.corpus.CasingStats, "collect", "corpus.collect"),
    (casetag.cli, "prepare_corpus", "corpus.prepare"),
    (casetag.cli, "read_conll", "data.read_conll"),
]

LAYERS = ("nn", "crf", "truecaser", "ner", "corpus", "data", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.active = False
        self.tape_nodes = 0
        self.round_index = 0  # set by the caller; repeats are counted within a round
        # (round, parameter fingerprint, input text) of each distributions call
        self.distribution_inputs: list[tuple[int, int, str]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """One span around the benchmark's own code, when tracing is on."""
        if not self.active:
            yield
            return
        span = self.open(name)
        try:
            yield
        finally:
            self.close(span)

    @contextlib.contextmanager
    def paused(self):
        """No spans inside: the benchmark's checks call the program too."""
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if name == "truecaser.distributions":
                tracer._note_distribution_input(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                if name == "corpus.prepare":
                    # a generator: consume it inside the span
                    result = iter(list(result))
                elif name == "nn.toposort":
                    tracer.tape_nodes += len(result)
                return result
            finally:
                tracer.close(span)

        return wrapper

    def _note_distribution_input(self, model, text: str) -> None:
        fingerprint = hash(b"".join(p.data.tobytes() for _, p in model.named_params()))
        self.distribution_inputs.append((self.round_index, fingerprint, text))

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(original.__func__, name))
            else:
                replacement = self._wrap(original, name)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children
        (children nest inside their parent and do not overlap)."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: str) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "self": own[i]}) + "\n")

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over all recorded spans, which cover ``rounds``
        whole rounds.  Times are milliseconds per call of the wrapped
        function, including its child spans; counts are per round."""
        calls: Counter = Counter()
        total: Counter = Counter()
        layer_self: Counter = Counter()
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            calls[name] += 1
            total[name] += end - start
            layer_self[name.partition(".")[0]] += own
        out = {}
        for name in dict.fromkeys(name for _, _, name in TARGETS):
            if name != "nn.toposort":
                per_call = 1000.0 * total[name] / calls[name] if calls[name] else 0.0
                out[f"{name}_ms"] = (per_call, "ms")
        for name in ("nn.lstm_run", "nn.charcnn", "truecaser.distributions"):
            out[f"{name}_calls"] = (calls[name] / rounds, "count")
        backward = calls["nn.backward"]
        out["nn.tape_nodes_per_sent"] = (self.tape_nodes / backward if backward else 0.0,
                                         "count")
        seen = self.distribution_inputs
        out["truecaser.distributions_distinct_ratio"] = (
            len(set(seen)) / len(seen) if seen else 0.0, "ratio")
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = (1000.0 * layer_self[layer] / rounds, "ms")
        out["trace.spans_per_round"] = (len(self.spans) / rounds, "count")
        return out
