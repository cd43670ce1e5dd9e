"""Span recording around sigmadiv's layer boundaries, installed from outside.

`Tracer.install()` replaces the public functions of each sigmadiv module
(plus the few private entry points a per-layer metric needs) with wrappers
that record a span: name, start, end, parent span and thread.  Every module
that imported a wrapped function by name gets the wrapper too, so calls
inside the package are traced as well as calls from the CLI.  Spans stay
in memory and are written once, when the job ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time

LAYERS = ("datamodel", "specfun", "gibbs", "estimators", "dpinfer", "apinfer", "taxo",
          "draws")

# private functions and methods that a per-layer metric needs a span for
EXTRA_SPANS = {
    ("taxo", None, "_fit_ap_level"): "taxo.fit_ap_level",
    ("specfun", "CoefficientTable", "log_row"): "specfun.log_row",
}

# hot methods that are counted, not spanned
COUNTED = {
    ("dpinfer", "CoarsenedPosterior", "log_kernel"): "dpinfer.log_kernel",
    ("dpinfer", "StirlingGammaSpec", "log_kernel"): "dpinfer.log_kernel",
}


def _rss_mb() -> float:
    """Current resident set size of this process, from /proc/self/statm."""
    with open("/proc/self/statm", "rb") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _family(model) -> str:
    return {"DirichletProcess": "dp", "DirichletMultinomial": "dm",
            "AldousPitman": "ap"}.get(type(model).__name__, "?")


def _attrs_for(name: str):
    """Span attributes a per-layer metric derives from the call's arguments or result."""
    if name == "specfun.log_hermite_batch":
        return lambda a, r: {"orders": int(len(a["orders"]))}
    if name == "gibbs.urn_sample":
        return lambda a, r: {"family": _family(a["model"]), "steps": int(a["n_steps"])}
    if name == "gibbs.extrapolation":
        return lambda a, r: {"family": _family(a["model"]),
                             "mc_steps": int(a["replicates"]) * int(a["m"])
                             if _family(a["model"]) == "ap" else 0}
    if name in ("dpinfer.sg_posterior_sample", "dpinfer.sg_prior_sample"):
        return lambda a, r: {"draws": int(len(r.values)), "thin": int(r.thin),
                             "ess": float(r.ess)}
    if name == "apinfer.iid_two_step_sample":
        return lambda a, r: {"draws": int(a["n_draws"])}
    if name == "taxo.nested_urn_sample":
        return lambda a, r: {"steps": int(a["n_steps"]) * len(a["levels"])}
    if name == "taxo.fit_ap_level":
        return lambda a, r: {"iters": int(a["mcmc"].iters)}
    if name == "taxo.fit_taxonomic":
        return lambda a, r: {"threads": int(a["mcmc"].threads)}
    return None


class Tracer:
    """In-memory span store for one job process."""

    def __init__(self, job: str):
        self.job = job
        self.spans = []  # list.append is atomic, so worker threads share it
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counters = []
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counter(self) -> dict:
        c = getattr(self._local, "counts", None)
        if c is None:
            c = self._local.counts = {}
            with self._lock:
                self._counters.append(c)
        return c

    def add(self, name: str, start_ns: int, end_ns: int, parent: int = 0, **attrs) -> int:
        sid = next(self._ids)
        self.spans.append((sid, parent, name, start_ns, end_ns, threading.get_ident(), attrs))
        return sid

    def span(self, name: str, fn):
        """Wrap fn so each call records a span named `name`."""
        attrs_fn = _attrs_for(name)
        sig = inspect.signature(fn) if attrs_fn is not None else None
        tracer = self
        rss = name == "gibbs.posterior_Km_pmf"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            extra = {"rss_before_mb": _rss_mb()} if rss else {}
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            if attrs_fn is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                extra.update(attrs_fn(bound.arguments, result))
            if rss:
                extra["rss_after_mb"] = _rss_mb()
            tracer.spans.append((sid, parent, name, start, end, threading.get_ident(), extra))
            return result

        return wrapper

    def counted(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            c = tracer._counter()
            c[name] = c.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every layer's public functions and the extra entry points."""
        modules = {short: sys.modules[f"sigmadiv.{short}"] for short in LAYERS}
        replaced = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    replaced[obj] = self.span(f"{short}.{attr}", obj)
        for (short, cls, attr), name in EXTRA_SPANS.items():
            owner = modules[short] if cls is None else getattr(modules[short], cls)
            fn = getattr(owner, attr)
            if cls is None:
                replaced[fn] = self.span(name, fn)
            else:
                setattr(owner, attr, self.span(name, fn))
        for (short, cls, attr), name in COUNTED.items():
            owner = getattr(modules[short], cls)
            setattr(owner, attr, self.counted(name, getattr(owner, attr)))
        # rebind in every sigmadiv module, so `from .x import f` call sites see the wrapper
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("sigmadiv"):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

    def dump(self, path: str) -> None:
        counts = {}
        for c in self._counters:
            for k, v in c.items():
                counts[k] = counts.get(k, 0) + v
        with open(path, "a", encoding="utf-8") as fh:
            for sid, parent, name, start, end, tid, attrs in self.spans:
                fh.write(json.dumps({"job": self.job, "id": sid, "parent": parent,
                                     "name": name, "start_ns": start, "end_ns": end,
                                     "thread": tid, **attrs}) + "\n")
            fh.write(json.dumps({"job": self.job, "counts": counts}) + "\n")
