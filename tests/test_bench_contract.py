"""The names that the perfbench harness reads from sigmadiv still exist.

The timed benchmark runs without its tracer, so a rename that only breaks a
traced run (`perfbench/run.py --trace 1`) would otherwise go unnoticed.  The
harness files are read, never changed: `spans.py` is loaded by path and
`job.py` is parsed.
"""

import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sigmadiv
from sigmadiv import apinfer, dpinfer, gibbs, taxo
from sigmadiv.draws import PosteriorDraws

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _params(fn):
    return set(inspect.signature(fn).parameters)


def test_span_targets_resolve(spans):
    for module, cls, attr in [*spans.EXTRA_SPANS, *spans.COUNTED]:
        owner = importlib.import_module(f"sigmadiv.{module}")
        if cls is not None:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr)), (module, cls, attr)


def test_traced_attributes_exist(spans):
    assert {"model", "m", "replicates"} <= _params(gibbs.extrapolation)
    assert {"model", "n_steps"} <= _params(gibbs.urn_sample)
    assert {"levels", "n_steps"} <= _params(taxo.nested_urn_sample)
    assert "n_draws" in _params(apinfer.iid_two_step_sample)
    assert "mcmc" in _params(taxo._fit_ap_level) and "mcmc" in _params(taxo.fit_taxonomic)
    settings = taxo.MCMCSettings()
    assert isinstance(settings.iters, int) and isinstance(settings.threads, int)
    draws = PosteriorDraws("alpha", np.arange(8.0), 1.0)
    assert len(draws.values) == 8 and draws.thin == 1 and draws.ess > 0
    for name in ("dpinfer.sg_posterior_sample", "taxo.fit_ap_level", "gibbs.extrapolation"):
        assert spans._attrs_for(name) is not None, name


def test_library_jobs_bind():
    # every gibbs/dpinfer call of the library jobs, with its keyword names
    tree = ast.parse((PERFBENCH / "job.py").read_text(encoding="utf-8"))
    modules = {"gibbs": gibbs, "dpinfer": dpinfer}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name)
             and node.func.value.id in modules]
    names = {call.func.attr for call in calls}
    assert {"posterior_Km_pmf", "calibration_curve"} <= names
    for call in calls:
        fn = getattr(modules[call.func.value.id], call.func.attr)
        keywords = {kw.arg: None for kw in call.keywords}
        inspect.signature(fn).bind(*[None] * len(call.args), **keywords)
        if call.func.attr == "posterior_Km_pmf":
            assert set(keywords) == {"table_cap", "mc_replicates", "rng_seed"}


def test_cli_import_loads_every_traced_layer(spans):
    # Tracer.install reads sys.modules["sigmadiv.<layer>"] right after a job's
    # `import sigmadiv.cli`, so a layer loaded lazily would fail every traced job
    assert spans.LAYERS
    code = ("import json, sys\nimport sigmadiv.cli\n"
            "print(json.dumps([m for m in json.loads(sys.argv[1])\n"
            "                  if 'sigmadiv.' + m not in sys.modules]))")
    src = os.path.dirname(os.path.dirname(sigmadiv.__file__))
    out = subprocess.run([sys.executable, "-c", code, json.dumps(spans.LAYERS)], check=True,
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                         text=True).stdout
    assert json.loads(out) == []
