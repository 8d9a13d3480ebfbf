"""In-memory span tracing around flowsr's module boundaries.

Spans are recorded from outside the program: `Tracer.patched` replaces a
function's name in the namespace of the module that calls it (for example
`flowsr.sampler.forward_batch`) with a wrapper that opens a span, and puts
the original back afterwards. Nothing under `src/` is changed.

A span's self time is its duration minus the durations of its direct
children, so the self times of every span under one operation add up to
that operation's traced time.
"""

import contextlib
import functools
import importlib
import time

import numpy as np


class Tracer:
    """Collects spans as [name, start, end, parent index, attrs] lists."""

    def __init__(self):
        self.spans = []
        self.missing = set()  # targets whose attribute does not exist
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, attrs]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, attrs_fn=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = attrs_fn(*args, **kwargs) if attrs_fn else {}
            with self.span(name, **attrs):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Install wrappers for (module, attribute, span name[, attrs_fn])
        targets, skipping (and noting in `missing`) those that do not exist,
        so a refactor that moves a call shows in the report."""
        saved = []
        for module_name, attr, name, *rest in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, *rest))
        try:
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def clear(self):
        self.spans.clear()


def self_times(spans):
    """Per-span self time in seconds, aligned with `spans`."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def forward_shape_attrs(model, x_t, *args, **kwargs):
    """Work counts for one `forward_batch` call, computed from shapes."""
    cfg = model.config
    batch, channels, frames = (int(n) for n in np.shape(x_t))
    d, h, f = cfg.model_dim, cfg.num_heads, cfg.feedforward_dim
    tokens = batch * frames
    per_block = (2 * batch * d * 6 * d              # adaLN modulation
                 + 2 * tokens * d * 3 * d           # q, k, v projection
                 + 2 * 2 * batch * h * frames * frames * cfg.head_dim  # scores, context
                 + 2 * tokens * d * d               # attention output
                 + 2 * 2 * tokens * d * f)          # feed-forward
    flops = (2 * tokens * 2 * channels * d          # input projection
             + 2 * batch * (cfg.time_embed_dim * d + d * d)  # time MLP
             + cfg.num_layers * per_block
             + 2 * batch * d * 2 * d                # final modulation
             + 2 * tokens * d * channels)           # output projection
    return {"frames": tokens, "flops": flops,
            "attn_bytes": batch * h * frames * frames * 8}
