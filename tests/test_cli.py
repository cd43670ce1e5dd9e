import argparse
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import sigmadiv
from sigmadiv import cli, gibbs, taxo
from sigmadiv.draws import PosteriorDraws
from sigmadiv.datamodel import ingest_abundance_csv

TINY = "taxon,count\na,30\nb,12\nc,5\nd,2\ne,1\nf,1\ng,1\n"
TREE = ("level1,level2,level3,count\nf1,g1,s1,20\nf1,g1,s2,5\nf1,g2,s3,3\n"
        "f2,g3,s4,8\nf2,g3,s5,1\nf3,g4,s6,2\n")


@pytest.fixture()
def tiny_csv(tmp_path):
    p = tmp_path / "tiny.csv"
    p.write_text(TINY, encoding="utf-8")
    return str(p)


def run(*args):
    return cli.main([str(a) for a in args])


def read_csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    assert lines[0].startswith("# config: ")
    json.loads(lines[0][len("# config: "):])  # header is valid JSON
    header = lines[1].split(",")
    rows = [ln.split(",") for ln in lines[2:] if ln]
    return header, rows


class TestFit:
    def test_dp_outputs(self, tiny_csv, tmp_path):
        out = tmp_path / "fit"
        assert run("fit", "--input", tiny_csv, "--seed", 1, "--sg", 1, 0.02, 52,
                   "--draws", 1500, "--output-dir", out) == 0
        est = json.loads((out / "point_estimates.json").read_text())
        assert est["n"] == 52 and est["k"] == 7
        assert abs(est["ml"]["residual"]) < 1e-9 * 7
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["quantiles"]) == {"1", "25", "50", "75", "99"}
        header, rows = read_csv_rows(out / "draws.csv")
        assert header == ["draw", "alpha"] and len(rows) == 1500

    def test_ap_fit(self, tiny_csv, tmp_path):
        out = tmp_path / "fit_ap"
        assert run("fit", "--input", tiny_csv, "--seed", 1, "--family", "ap",
                   "--gamma-prior", 1, 1, "--draws", 1000, "--output-dir", out) == 0
        header, rows = read_csv_rows(out / "draws.csv")
        assert header == ["draw", "gamma"]

    def test_all_distinct_exits_domain(self, tmp_path):
        p = tmp_path / "kn.csv"
        p.write_text("taxon,count\na,1\nb,1\n", encoding="utf-8")
        assert run("fit", "--input", p, "--seed", 1,
                   "--output-dir", tmp_path / "x") == cli.EXIT_DOMAIN

    def test_dm_family_rejected(self, tiny_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("fit", "--input", tiny_csv, "--seed", 1, "--family", "dm",
                "--output-dir", tmp_path / "x")
        assert exc.value.code == 2

    def test_parse_error_exit(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("species,num\na,1\n", encoding="utf-8")
        assert run("fit", "--input", p, "--seed", 1,
                   "--output-dir", tmp_path / "x") == cli.EXIT_PARSE

    def test_missing_seed_is_parse_error(self, tiny_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("fit", "--input", tiny_csv, "--output-dir", tmp_path / "x")
        assert exc.value.code == 2


def _every_branch(tiny_csv, tmp_path):
    """The argv of every subcommand branch on tiny inputs, each with its own output
    directory under tmp_path."""
    tree = tmp_path / "tree.csv"
    tree.write_text(TREE, encoding="utf-8")
    runs = [["simulate", "--n", 40, "--family", "dm", "--bound-h", 5],
            ["simulate", "--n", 40, "--family", "ap", "--gamma", 1],
            ["simulate", "--n", 40, "--levels-spec", "dp:3;dp:2;ap:0.8"],
            ["fit", "--input", tiny_csv, "--family", "dp", "--draws", 50],
            ["fit", "--input", tiny_csv, "--family", "ap", "--draws", 50],
            ["extrapolate", "--input", tiny_csv, "--family", "ap", "--gamma", 1,
             "--m", 5, "--replicates", 3],
            ["extrapolate", "--input", tiny_csv, "--m", 5],
            ["validate", "--input", tiny_csv, "--family", "dm", "--bound-h", 10,
             "--replicates", 3],
            ["validate", "--input", tiny_csv, "--family", "ap", "--gamma", 1,
             "--replicates", 3],
            ["taxonomic", "--input", tree, "--mcmc-iters", 30, "--burn-in", 10],
            ["taxonomic", "--input", tree, "--mcmc-iters", 30, "--burn-in", 10,
             "--threads", 2],
            ["richness", "--input", tiny_csv, "--sg", 1, 0.02, 52, "--nhat", 5000,
             "--draws", 200]]
    return [[str(a) for a in argv] + ["--seed", "1", "--output-dir", str(tmp_path / f"out{i}")]
            for i, argv in enumerate(runs)]


class TestImport:
    def test_cli_import_skips_scipy_optimize(self):
        src = os.path.dirname(os.path.dirname(sigmadiv.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sigmadiv.cli, sys; print('scipy.optimize' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"

    def test_flat_fit_skips_thread_pool(self, tiny_csv, tmp_path):
        # concurrent.futures serves no command; a flat fit must not load it
        src = os.path.dirname(os.path.dirname(sigmadiv.__file__))
        code = ("import sys, sigmadiv.cli\n"
                "code = sigmadiv.cli.main(sys.argv[1:])\n"
                "print(code, 'concurrent.futures' in sys.modules)")
        argv = ["fit", "--input", tiny_csv, "--draws", "50", "--seed", "1",
                "--output-dir", str(tmp_path / "fit")]
        out = subprocess.run([sys.executable, "-c", code, *argv], check=True,
                             env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                             text=True).stdout
        assert out.split() == ["0", "False"]

    def test_no_command_loads_scipy(self, tiny_csv, tmp_path):
        # one cold interpreter runs every subcommand on tiny inputs: none loads
        # scipy or numpy.polynomial, no np.quantile or np.unique pulls in
        # numpy.ma, no module builds classes through dataclasses, and the taxonomic
        # fit at --threads 2 fits every branch on the one thread of the process
        argvs = _every_branch(tiny_csv, tmp_path)
        code = ("import json, os, sys, threading\n"
                "env = dict(os.environ)\n"
                "import sigmadiv.cli, sigmadiv.taxo as taxo\n"
                "fit_branch, active = taxo.sg_posterior_sample, set()\n"
                "def counted(*args):\n"
                "    active.add(threading.active_count())\n"
                "    return fit_branch(*args)\n"
                "taxo.sg_posterior_sample = counted\n"
                "codes = [sigmadiv.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
                "loaded = sorted(m for m in sys.modules\n"
                "                if (m + '.').startswith(('scipy.', 'numpy.polynomial.',\n"
                "                                         'numpy.ma.', 'concurrent.',\n"
                "                                         'dataclasses.')))\n"
                "print(json.dumps([codes, loaded, dict(os.environ) == env, sorted(active)]))")
        src = os.path.dirname(os.path.dirname(sigmadiv.__file__))
        out = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], check=True,
                             env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                             text=True).stdout
        codes, loaded, env_kept, active = json.loads(out.strip().splitlines()[-1])
        assert codes == [0] * len(argvs)
        assert loaded == []
        assert env_kept
        assert active == [1]

    @staticmethod
    def _cold(code, **env):
        """stdout of a fresh interpreter running code, with no BLAS timeout inherited."""
        src = os.path.dirname(os.path.dirname(sigmadiv.__file__))
        base = {k: v for k, v in os.environ.items()
                if k not in ("OPENBLAS_THREAD_TIMEOUT", "GOTO_THREAD_TIMEOUT")}
        return subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                              text=True, env=dict(base, PYTHONPATH=src, **env)).stdout

    def test_import_leaves_environment_unchanged(self):
        # the BLAS timeout is set only while numpy loads: neither os.environ nor
        # the C environment that a child process inherits keeps it
        code = ("import json, os, subprocess, sys\n"
                "before = dict(os.environ)\n"
                "import sigmadiv\n"
                "child = subprocess.run([sys.executable, '-c', 'import os; "
                "print(os.environ.get(\"OPENBLAS_THREAD_TIMEOUT\"))'],\n"
                "                       capture_output=True, text=True).stdout.strip()\n"
                "print(json.dumps([dict(os.environ) == before, child]))")
        assert json.loads(self._cold(code)) == [True, "None"]

    def test_import_keeps_user_blas_timeout(self):
        code = "import os, sigmadiv; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])"
        assert self._cold(code, OPENBLAS_THREAD_TIMEOUT="28").strip() == "28"

    def test_import_after_numpy_sets_nothing(self):
        code = ("import os, numpy\n"
                "class Recording(dict):\n"
                "    keys_set = []\n"
                "    def __setitem__(self, key, value):\n"
                "        self.keys_set.append(key)\n"
                "        super().__setitem__(key, value)\n"
                "os.environ = Recording(os.environ)\n"
                "import sigmadiv\n"
                "print(Recording.keys_set)")
        assert self._cold(code).strip() == "[]"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_idle_blas_worker_does_not_spin(self):
        # OpenBLAS's default idle worker spins 2^28 cycles after numpy loads (3-6
        # clock ticks on a 2-core host); with the shortest timeout it sleeps at once
        code = ("import os, threading, time\n"
                "import sigmadiv.cli\n"
                "time.sleep(0.3)\n"
                "ticks = 0\n"
                "for tid in os.listdir('/proc/self/task'):\n"
                "    if int(tid) != threading.get_native_id():\n"
                "        with open(f'/proc/self/task/{tid}/stat') as fh:\n"
                "            fields = fh.read().rsplit(')', 1)[1].split()\n"
                "        ticks += int(fields[11]) + int(fields[12])  # utime, stime\n"
                "print(ticks)")
        assert int(self._cold(code)) <= 1

    LAYERS = ("errors", "datamodel", "specfun", "gibbs", "estimators", "draws", "dpinfer",
              "apinfer", "taxo")

    @staticmethod
    def _commands(argvs, watched=()):
        """In one cold interpreter, the exit codes of the commands argvs, then the
        sigmadiv modules executed (a module registered for a lazy load is still a
        _LazyModule) and the modules of `watched` that are loaded."""
        code = ("import json, sys, types\n"
                "import sigmadiv.cli\n"
                "args = json.loads(sys.argv[1])\n"
                "codes = [sigmadiv.cli.main(argv) for argv in args[0]]\n"
                "executed = sorted(m.split('.')[1] for m, module in sys.modules.items()\n"
                "                  if m.startswith('sigmadiv.')\n"
                "                  and type(module) is types.ModuleType)\n"
                "print(json.dumps([codes, executed, [m for m in args[1] if m in sys.modules]]))")
        src = os.path.dirname(os.path.dirname(sigmadiv.__file__))
        out = subprocess.run([sys.executable, "-c", code, json.dumps([argvs, watched])],
                             check=True, env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True).stdout
        return json.loads(out.strip().splitlines()[-1])

    def test_cli_import_executes_only_base_layers(self):
        # every layer is registered, so `from . import x` and sys.modules see it, but
        # only the layers every command runs are executed
        code = ("import json, sys, types\n"
                "import sigmadiv.cli\n"
                "modules = {m.split('.')[1]: type(module) is types.ModuleType\n"
                "           for m, module in sys.modules.items() if m.startswith('sigmadiv.')}\n"
                "print(json.dumps(modules))")
        modules = json.loads(self._cold(code))
        assert sorted(modules) == sorted(self.LAYERS + ("cli",))
        assert sorted(m for m, executed in modules.items() if executed) == [
            "cli", "datamodel", "errors", "specfun"]

    def test_dp_commands_skip_taxo_and_apinfer(self, tiny_csv, tmp_path):
        runs = [["simulate", "--n", "40", "--alpha", "5"],
                ["fit", "--input", tiny_csv, "--family", "dp", "--draws", "50"],
                ["richness", "--input", tiny_csv, "--nhat", "5000", "--draws", "200"],
                ["extrapolate", "--input", tiny_csv, "--family", "dp", "--m", "5"],
                ["validate", "--input", tiny_csv, "--family", "dp", "--replicates", "3"],
                ["validate", "--input", tiny_csv, "--family", "dm", "--bound-h", "10",
                 "--replicates", "3"]]
        argvs = [argv + ["--seed", "1", "--output-dir", str(tmp_path / f"out{i}")]
                 for i, argv in enumerate(runs)]
        codes, executed, _ = self._commands(argvs)
        assert codes == [0] * len(runs)
        assert {"gibbs", "dpinfer"} <= set(executed)
        assert not {"taxo", "apinfer"} & set(executed)

    def test_extrapolate_skips_random_and_openssl(self, tiny_csv, tmp_path):
        # the exact chain draws nothing, so neither numpy.random nor the OpenSSL
        # behind hashlib (which numpy.random and taxo load) is loaded
        runs = [["--family", "dp"], ["--family", "ap", "--gamma", "1"]]
        argvs = [["extrapolate", "--input", tiny_csv, "--m", "5", *run, "--seed", "1",
                  "--output-dir", str(tmp_path / f"out{i}")] for i, run in enumerate(runs)]
        codes, executed, loaded = self._commands(argvs, ["numpy.random", "_hashlib"])
        assert codes == [0, 0]
        assert "gibbs" in executed
        assert loaded == []

    def test_no_layer_compiles_after_numpy_random(self, tiny_csv, tmp_path):
        # a layer compiled after the first generator exists raises the job's peak
        # RSS (a lazy specfun, compiled mid-way through an AP simulate, raised its
        # VmHWM by ~1 MiB), so each command executes its layers before it draws.
        # Each branch runs in a fresh interpreter on a copy of the package with no
        # bytecode cache, recording in order the compile of each of its source files
        # and the import of numpy.random
        pkg = tmp_path / "pkg"
        shutil.copytree(os.path.dirname(sigmadiv.__file__), pkg / "sigmadiv",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code = ("import json, os, sys\n"
                "src, events = os.path.join(sys.argv[1], ''), []\n"
                "def hook(event, args):\n"
                "    if event == 'compile' and str(args[1]).startswith(src):\n"
                "        events.append(os.path.basename(args[1]))\n"
                "    elif event == 'import' and args[0] == 'numpy.random':\n"
                "        events.append(args[0])\n"
                "sys.addaudithook(hook)\n"
                "import sigmadiv.cli\n"
                "print(json.dumps([sigmadiv.cli.main(sys.argv[2:]), events]))")
        env = dict(os.environ, PYTHONPATH=str(pkg), PYTHONDONTWRITEBYTECODE="1")
        late = []
        for argv in _every_branch(tiny_csv, tmp_path):
            out = subprocess.run([sys.executable, "-c", code, str(pkg / "sigmadiv"), *argv],
                                 check=True, env=env, capture_output=True, text=True).stdout
            status, events = json.loads(out.strip().splitlines()[-1])
            assert status == 0 and "cli.py" in events, argv
            if "numpy.random" in events:
                late += [(argv[:5], name)
                         for name in events[events.index("numpy.random") + 1:]]
        assert late == []


class TestDeterminism:
    def test_byte_identical_reruns(self, tiny_csv, tmp_path):
        out = tmp_path / "rerun"
        args = ("fit", "--input", tiny_csv, "--seed", 3, "--sg", 1, 0.02, 52,
                "--draws", 800, "--output-dir", out)
        assert run(*args) == 0
        first = {f: (out / f).read_bytes() for f in os.listdir(out)}
        assert run(*args) == 0
        second = {f: (out / f).read_bytes() for f in os.listdir(out)}
        assert first == second

    def test_draw_formatting_17_digits(self, tiny_csv, tmp_path):
        out = tmp_path / "fmt"
        run("fit", "--input", tiny_csv, "--seed", 3, "--sg", 1, 0.02, 52,
            "--draws", 10, "--output-dir", out)
        _, rows = read_csv_rows(out / "draws.csv")
        val = rows[0][1]
        assert float(val) == float(f"{float(val):.17g}")
        assert len(val.replace(".", "").replace("-", "").lstrip("0")) >= 12


class TestValidate:
    def test_outputs_and_singleton_row(self, tiny_csv, tmp_path):
        out = tmp_path / "val"
        assert run("validate", "--input", tiny_csv, "--seed", 2, "--replicates", 150,
                   "--r-max", 10, "--output-dir", out) == 0
        header, rows = read_csv_rows(out / "rarefaction.csv")
        assert header == ["size", "classical", "model"]
        assert float(rows[0][1]) == pytest.approx(1.0)
        header, rows = read_csv_rows(out / "freq_counts.csv")
        data = ingest_abundance_csv(tiny_csv)
        observed = {int(r[0]): int(r[1]) for r in rows}
        assert observed[1] == data.freq_counts[1]
        header, rad_rows = read_csv_rows(out / "rad.csv")
        assert [int(r[0]) for r in rad_rows[:3]] == [1, 2, 3]
        assert int(rad_rows[0][1]) == 30

    def test_self_consistency_on_simulated_dp(self, tmp_path):
        sim_dir = tmp_path / "sim"
        assert run("simulate", "--family", "dp", "--alpha", 5, "--n", 800,
                   "--seed", 11, "--output-dir", sim_dir) == 0
        out = tmp_path / "val"
        assert run("validate", "--input", sim_dir / "simulated_abundance.csv",
                   "--seed", 12, "--alpha", 5, "--replicates", 300,
                   "--grid-points", 40, "--output-dir", out) == 0
        _, rows = read_csv_rows(out / "rarefaction.csv")
        classical = np.array([float(r[1]) for r in rows])
        model = np.array([float(r[2]) for r in rows])
        # same generative alpha: the curves overlap within a loose band
        assert np.abs(classical - model).max() / classical.max() < 0.15


class TestRichness:
    def test_summary_and_floor(self, tiny_csv, tmp_path):
        out = tmp_path / "rich"
        assert run("richness", "--input", tiny_csv, "--sg", 1, 0.02, 52, "--nhat", 5000,
                   "--draws", 2000, "--seed", 4, "--output-dir", out) == 0
        _, rows = read_csv_rows(out / "richness_draws.csv")
        draws = np.array([int(r[1]) for r in rows])
        assert (draws >= 7).all()

    def test_nhat_equal_n_point_mass(self, tiny_csv, tmp_path):
        out = tmp_path / "rich0"
        assert run("richness", "--input", tiny_csv, "--sg", 1, 0.02, 52, "--nhat", 52,
                   "--draws", 500, "--seed", 4, "--output-dir", out) == 0
        _, rows = read_csv_rows(out / "richness_draws.csv")
        assert {int(r[1]) for r in rows} == {7}

    def test_all_singletons_default_prior_is_domain_error(self, tmp_path):
        # the default prior has a/b = n, so k = n leaves the alpha posterior improper
        assert run("richness", "--n", 50, "--k", 50, "--nhat", 100, "--seed", 1,
                   "--output-dir", tmp_path / "x") == cli.EXIT_DOMAIN


class TestExtrapolate:
    def test_one_step_equals_predictive(self, tiny_csv, tmp_path):
        out = tmp_path / "ext"
        assert run("extrapolate", "--input", tiny_csv, "--alpha", 2.0, "--m", 1,
                   "--seed", 5, "--output-dir", out) == 0
        _, rows = read_csv_rows(out / "extrapolation.csv")
        data = ingest_abundance_csv(tiny_csv)
        split = gibbs.predictive(gibbs.DirichletProcess(2.0), data.n, data.k,
                                 data.abundances)
        assert float(rows[0][1]) == pytest.approx(data.k + split.p_new, rel=1e-5)

    def test_sufficient_stats_input(self, tmp_path):
        out = tmp_path / "ext2"
        assert run("extrapolate", "--n", 100, "--k", 20, "--alpha", 5.0, "--m", 3,
                   "--seed", 5, "--output-dir", out) == 0
        _, rows = read_csv_rows(out / "extrapolation.csv")
        assert len(rows) == 3 and int(rows[0][0]) == 101

    def test_ap_curve_does_not_depend_on_seed(self, tmp_path):
        # the AP curve is the exact mean of the K chain; --replicates is inert
        tables = []
        for seed in (1, 2):
            out = tmp_path / f"s{seed}"
            assert run("extrapolate", "--family", "ap", "--gamma", 4.95, "--n", 5000,
                       "--k", 350, "--m", 2000, "--replicates", 200, "--seed", seed,
                       "--output-dir", out) == 0
            tables.append(read_csv_rows(out / "extrapolation.csv"))
        assert tables[0] == tables[1]
        header, rows = tables[0]
        assert header == ["size", "expected"] and len(rows) == 2000


@pytest.mark.parametrize("argv", [
    ["extrapolate", "--family", "ap", "--gamma", 2, "--n", 100, "--k", 20, "--m", 5,
     "--replicates", 0],
    ["extrapolate", "--family", "ap", "--gamma", 2, "--n", 100, "--k", 20, "--m", 5,
     "--replicates", -3],
    ["validate", "--input", "{csv}", "--family", "dm", "--bound-h", 10, "--replicates", 0],
], ids=["extrapolate-0", "extrapolate-negative", "validate-0"])
def test_fewer_than_one_replicate_is_domain_error(argv, tiny_csv, tmp_path):
    out = tmp_path / "x"
    argv = [str(a).format(csv=tiny_csv) for a in argv]
    assert run(*argv, "--seed", 1, "--output-dir", out) == cli.EXIT_DOMAIN
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["validate", "--input", "{csv}", "--family", "dp", "--alpha", 2, "--grid-points", 0],
    ["validate", "--input", "{csv}", "--family", "dp", "--alpha", 2, "--grid-points", -4],
    ["richness", "--input", "{csv}", "--nhat", "inf"],
    ["richness", "--input", "{csv}", "--nhat", "nan"],
    ["simulate", "--n", 30, "--levels-spec", "dp:abc;dp:2"],
    ["simulate", "--n", 30, "--levels-spec", "dp:3;dm:2.5"],
    ["fit", "--input", "{csv}", "--family", "ap", "--draws", 0],
    ["fit", "--input", "{csv}", "--family", "ap", "--rho", 2],
    ["taxonomic", "--input", "{tree}", "--rho", 2],
    ["taxonomic", "--input", "{tree}", "--hyper-sd", 0],
    ["taxonomic", "--input", "{tree}", "--hyper-sd", -1],
    ["taxonomic", "--input", "{tree}", "--threads", 0],
    ["taxonomic", "--input", "{tree}", "--threads", -3],
    ["extrapolate", "--family", "dp", "--alpha", "nan", "--n", 100, "--k", 10, "--m", 5],
    ["extrapolate", "--family", "ap", "--gamma", "nan", "--n", 100, "--k", 10, "--m", 5],
    ["simulate", "--n", 30, "--family", "dm", "--sigma", "nan", "--bound-h", 5],
    ["simulate", "--n", 30, "--levels-spec", "dp:nan;dp:2"],
    ["taxonomic", "--input", "{tree}", "--hyper-mu", 800, 0],
    ["taxonomic", "--input", "{tree}", "--hyper-mu", 0, "inf"],
    ["taxonomic", "--input", "{tree}", "--hyper-mu", "nan", 0],
    ["fit", "--input", "{csv}", "--family", "ap", "--gamma-prior", "nan", 1],
    ["fit", "--input", "{csv}", "--family", "ap", "--gamma-prior", 1, "nan"],
    ["fit", "--input", "{csv}", "--family", "ap", "--gamma-prior", "inf", 1],
    ["validate", "--input", "{csv}", "--family", "dp", "--alpha", 2, "--r-max", 0],
    ["fit", "--input", "{csv}", "--sg", 1, 0.02, "nan"],
    ["fit", "--input", "{csv}", "--sg", 1, 0.02, "inf"],
    ["fit", "--input", "{csv}", "--sg", 1, 0.02, 52.5],
    ["richness", "--input", "{csv}", "--nhat", 500, "--sg", 1, 0.02, "nan"],
    ["richness", "--input", "{csv}", "--nhat", 500, "--sg", 1, 0.02, "inf"],
    ["richness", "--input", "{csv}", "--nhat", 500, "--sg", 1, 0.02, 52.5],
    ["taxonomic", "--input", "{tree}", "--sg", 0.3, 0.1, "nan"],
    ["taxonomic", "--input", "{tree}", "--sg", 0.3, 0.1, "inf"],
    ["taxonomic", "--input", "{tree}", "--sg", 0.3, 0.1, 2.5],
    ["extrapolate", "--family", "dp", "--alpha", "inf", "--n", 10, "--k", 3, "--m", 3],
    ["simulate", "--family", "dp", "--alpha", "inf", "--n", 5],
    ["simulate", "--family", "ap", "--gamma", "inf", "--n", 5],
    ["simulate", "--levels-spec", "dp:inf;dp:2", "--n", 20],
    ["simulate", "--levels-spec", "dp:2;dm:5:-inf", "--n", 20],
    ["validate", "--input", "{csv}", "--family", "ap", "--gamma", 1e200],
    ["taxonomic", "--input", "{tree}", "--hyper-sd", "inf"],
    ["taxonomic", "--input", "{tree}", "--hyper-sd", 1e-300],
], ids=["validate-grid-0", "validate-grid-negative", "richness-nhat-inf", "richness-nhat-nan",
        "simulate-spec-not-a-number", "simulate-spec-dm-fractional-bound", "fit-ap-draws-0",
        "fit-ap-rho-2", "taxonomic-rho-2", "taxonomic-hyper-sd-0",
        "taxonomic-hyper-sd-negative", "taxonomic-threads-0", "taxonomic-threads-negative",
        "extrapolate-dp-alpha-nan", "extrapolate-ap-gamma-nan", "simulate-dm-sigma-nan",
        "simulate-spec-nan", "taxonomic-hyper-mu-overflow", "taxonomic-hyper-mu-inf",
        "taxonomic-hyper-mu-nan", "fit-ap-gamma-prior-a-nan", "fit-ap-gamma-prior-b-nan",
        "fit-ap-gamma-prior-a-inf", "validate-r-max-0", "fit-sg-nref-nan", "fit-sg-nref-inf",
        "fit-sg-nref-fraction", "richness-sg-nref-nan", "richness-sg-nref-inf",
        "richness-sg-nref-fraction", "taxonomic-sg-nref-nan", "taxonomic-sg-nref-inf",
        "taxonomic-sg-nref-fraction", "extrapolate-dp-alpha-inf", "simulate-dp-alpha-inf",
        "simulate-ap-gamma-inf", "simulate-spec-dp-inf", "simulate-spec-dm-sigma-inf",
        "validate-ap-gamma-huge", "taxonomic-hyper-sd-inf", "taxonomic-hyper-sd-underflow"])
def test_value_out_of_range_is_domain_error(argv, tiny_csv, tmp_path, capsys):
    tree = tmp_path / "tree.csv"
    tree.write_text(TREE, encoding="utf-8")
    argv = [str(a).format(csv=tiny_csv, tree=tree) for a in argv]
    assert run(*argv, "--seed", 1, "--output-dir", tmp_path / "x") == cli.EXIT_DOMAIN
    assert not (tmp_path / "x").exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    for flag, name in (("--hyper-mu", "hyper_mu"), ("--gamma-prior", "Gamma prior")):
        if flag in argv:  # refused by the prior itself, not by the sampler it feeds
            assert name in err


@pytest.mark.parametrize("argv", [
    ["fit", "--input", "{csv}", "--draws", 50],
    ["richness", "--input", "{csv}", "--nhat", 500, "--draws", 50],
    ["validate", "--input", "{csv}", "--alpha", 2, "--replicates", 2],
    ["simulate", "--n", 30, "--alpha", 2],
    ["simulate", "--n", 30, "--levels-spec", "dp:3;dp:2;ap:0.8"],
    ["extrapolate", "--input", "{csv}", "--family", "ap", "--gamma", 1, "--m", 3],
    ["extrapolate", "--input", "{csv}", "--family", "dp", "--alpha", 2, "--m", 3],
    ["taxonomic", "--input", "{tree}", "--mcmc-iters", 40, "--burn-in", 10],
], ids=["fit", "richness", "validate", "simulate", "simulate-nested", "extrapolate-ap",
        "extrapolate-dp", "taxonomic"])
def test_negative_seed_is_domain_error(argv, tiny_csv, tmp_path, capsys):
    tree = tmp_path / "tree.csv"
    tree.write_text(TREE, encoding="utf-8")
    argv = [str(a).format(csv=tiny_csv, tree=tree) for a in argv]
    assert run(*argv, "--seed", -1, "--output-dir", tmp_path / "x") == cli.EXIT_DOMAIN
    assert not (tmp_path / "x").exists()
    assert capsys.readouterr().err.startswith("error: --seed")


class TestTaxonomic:
    def test_fit_toy_tree(self, tmp_path):
        sim_dir = tmp_path / "nsim"
        assert run("simulate", "--levels-spec", "dp:4;dp:2;ap:0.8", "--n", 250,
                   "--seed", 9, "--output-dir", sim_dir) == 0
        out = tmp_path / "tax"
        assert run("taxonomic", "--input", sim_dir / "simulated_taxonomy.csv",
                   "--levels", 3, "--mcmc-iters", 400, "--burn-in", 100,
                   "--seed", 10, "--output-dir", out) == 0
        fit = json.loads((out / "taxonomic_fit.json").read_text())
        assert {"level1", "families", "genera", "hyper"} <= set(fit)
        header, rows = read_csv_rows(out / "branch_summaries.csv")
        assert header == ["level", "label", "mean", "q01", "q99", "n_branch",
                          "k_branch", "prior_only"]
        means2 = [float(r[2]) for r in rows if r[0] == "2"]
        assert means2 == sorted(means2, reverse=True)


    def test_fit_json_matches_per_value_formatting(self, tmp_path, monkeypatch):
        # the file is written piece by piece from arrays; its bytes must be those of
        # json.dump(indent=1, sort_keys=True) of the same payload as lists, and of the
        # draws formatted one by one as float("%.17g" % v), as they once were
        tree = tmp_path / "tree.csv"
        tree.write_text(TREE, encoding="utf-8")
        out = tmp_path / "tax"
        argv = ["taxonomic", "--input", tree, "--levels", 3, "--mcmc-iters", 60,
                "--burn-in", 20, "--seed", 4, "--output-dir", out]
        calls = []
        write = cli._write_json

        def recording(outdir, name, payload, config):
            calls.append((name, payload, config))
            return write(outdir, name, payload, config)

        monkeypatch.setattr(cli, "_write_json", recording)
        assert run(*argv) == 0
        (name, payload, config), = calls
        assert name == "taxonomic_fit"

        def as_lists(x, one):
            if isinstance(x, dict):
                return {key: as_lists(v, one) for key, v in x.items()}
            return [one(v) for v in x.tolist()] if isinstance(x, np.ndarray) else x

        written = (out / "taxonomic_fit.json").read_text(encoding="utf-8")
        for one in (float, lambda v: float("%.17g" % v)):
            want = json.dumps(dict(as_lists(payload, one), _config=json.loads(config)),
                              indent=1, sort_keys=True) + "\n"
            assert written == want

    def test_json_pieces_equal_json_dump(self):
        rng = np.random.default_rng(3)
        payload = {
            "b": {"z": rng.gamma(0.3, size=40) * 10.0 ** rng.integers(-300, 300, size=40),
                  "empty": np.array([]), "\u00e9": np.array([1.0, -0.0, 5e-324, 1e16, 0.1])},
            "a": np.array([np.nan, 1.0, -np.inf]), "c": {}, "d": [1, 2.5, {"x": [None, True]}],
            "ints": np.arange(3), "matrix": np.ones((2, 2)), "f": 3.5, "s": "line\nbreak",
            "hyper": {"3": {"a_gamma": np.array([0.5]), "acceptance": 0.25}}}

        def as_lists(x):
            if isinstance(x, dict):
                return {key: as_lists(v) for key, v in x.items()}
            return x.tolist() if isinstance(x, np.ndarray) else x

        assert "".join(cli._json_pieces(payload)) == json.dumps(as_lists(payload), indent=1,
                                                                  sort_keys=True)

    def test_fit_json_memory_bounded_by_one_branch(self, tmp_path, monkeypatch, traced_peak):
        # 250 branches x 1,000 draws: as lists the payload alone took ~8 MiB
        # (24-byte floats plus list slots); written a branch at a time, ~0.2 MiB
        tree = tmp_path / "tree.csv"
        tree.write_text("level1,level2,count\nf1,g1,5\nf1,g2,3\n", encoding="utf-8")
        rng = np.random.default_rng(8)
        n_keep, labels = 1_000, [f"f{i:03d}" for i in range(250)]
        draws = rng.gamma(2.0, size=(n_keep, len(labels)))
        fit = taxo.TaxonomicFit(
            spec=None, mcmc=None, level1=PosteriorDraws("alpha", draws[:, 0], rho=1.0),
            branches=[{lab: PosteriorDraws("gamma", draws[:, j], rho=0.25)
                       for j, lab in enumerate(labels)}],
            stats=[{lab: taxo.BranchSufficientStats(lab, 8, 2) for lab in labels}],
            prior_only=[set()],
            hyper={2: {"a_gamma": draws[:, 1], "b_gamma": draws[:, 2], "acceptance": 0.3}})
        monkeypatch.setattr(taxo, "fit_taxonomic", lambda spec, data, mcmc: fit)
        out = tmp_path / "tax"
        code, peak = traced_peak(lambda: run("taxonomic", "--input", tree, "--levels", 2,
                                             "--seed", 1, "--output-dir", out))
        assert code == 0
        assert peak < 2.0
        written = json.loads((out / "taxonomic_fit.json").read_text(encoding="utf-8"))
        assert written["level2"][labels[-1]] == draws[:, -1].tolist()


class TestSimulate:
    def test_flat_outputs(self, tmp_path):
        out = tmp_path / "sim"
        assert run("simulate", "--family", "dm", "--bound-h", 4, "--sigma", -1.0,
                   "--n", 300, "--seed", 6, "--output-dir", out) == 0
        data = ingest_abundance_csv(str(out / "simulated_abundance.csv"))
        assert data.n == 300 and data.k <= 4
        _, rows = read_csv_rows(out / "accumulation.csv")
        ks = [int(r[1]) for r in rows]
        assert ks[0] == 1 and ks == sorted(ks)

    def test_flat_config_resolves_family_and_sigma(self, tmp_path):
        out = tmp_path / "simcfg"
        assert run("simulate", "--alpha", 3, "--n", 20, "--seed", 8, "--output-dir", out) == 0
        with open(out / "accumulation.csv", encoding="utf-8") as fh:
            config = json.loads(fh.readline()[len("# config: "):])
        assert config["family"] == "dp" and "sigma" not in config
        assert config["resolved_model"] == "DirichletProcess(alpha=3.0)"
        # the model reprs are the resolved_model of every config line
        for flags, want in ((["--family", "dm", "--bound-h", 5],
                             "DirichletMultinomial(sigma=-1.0, H=5)"),
                            (["--family", "dm", "--bound-h", 7, "--sigma", -0.25],
                             "DirichletMultinomial(sigma=-0.25, H=7)"),
                            (["--family", "ap", "--gamma", 0.8], "AldousPitman(gamma=0.8)")):
            assert run("simulate", *flags, "--n", 20, "--seed", 8, "--output-dir", out) == 0
            with open(out / "accumulation.csv", encoding="utf-8") as fh:
                assert json.loads(fh.readline()[len("# config: "):])["resolved_model"] == want

    def test_dp_amazon_scale_terminal_k(self, tmp_path):
        # E(K_n | alpha-hat) = k by the ML first-order condition; SD ~ sqrt(k)
        out = tmp_path / "big"
        assert run("simulate", "--family", "dp", "--alpha", 751.23, "--n", 553_949,
                   "--seed", 7, "--output-dir", out) == 0
        data = ingest_abundance_csv(str(out / "simulated_abundance.csv"))
        assert abs(data.k - 4962) < 3 * math.sqrt(4962)

    def test_memory_bounded_by_stream(self, tmp_path, traced_peak):
        # the urn's flags and int32 labels, then the distinct column written over the
        # labels beside an int32 size column: 19.9 MiB traced with all the urn's
        # uniforms, two int32 arrays and an int64 copy of the labels to count them
        out = tmp_path / "sim1e6"
        code, peak = traced_peak(lambda: run("simulate", "--family", "dp", "--alpha", 50,
                                             "--n", 1_000_000, "--seed", 3,
                                             "--output-dir", out))
        assert code == 0
        assert peak < 10.0
        data = ingest_abundance_csv(str(out / "simulated_abundance.csv"))
        with open(out / "accumulation.csv", encoding="utf-8") as fh:
            *_, last = fh
        assert data.n == 1_000_000 and last == f"1000000,{data.k}\n"

    def test_json_format_mirror(self, tmp_path):
        out = tmp_path / "simj"
        assert run("simulate", "--family", "dp", "--alpha", 3, "--n", 50, "--seed", 8,
                   "--format", "json", "--output-dir", out) == 0
        summary = json.loads((out / "data_summary.json").read_text())
        assert summary["n"] == 50 and "freq_counts" in summary
        acc = json.loads((out / "accumulation.json").read_text())
        assert "_config" in acc and len(acc["rows"]) == 50


class TestAmazonScale:
    def test_fit_median_with_published_prior(self, amazon_abundance_csv, tmp_path):
        out = tmp_path / "amz1"
        assert run("fit", "--input", amazon_abundance_csv, "--seed", 21,
                   "--sg", 1, 0.002, 553_949, "--rho", 1.0, "--draws", 20_000,
                   "--output-dir", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert abs(summary["quantiles"]["50"] - 751) <= 2

    def test_fit_coarsened_interval(self, amazon_abundance_csv, tmp_path):
        # default prior resolves to SG(1, 0.0002, n); the 98% interval at
        # rho = 0.01 broadens to about (514, 1048)
        out = tmp_path / "amz2"
        assert run("fit", "--input", amazon_abundance_csv, "--seed", 22,
                   "--rho", 0.01, "--draws", 20_000, "--output-dir", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["quantiles"]["1"] == pytest.approx(514, rel=0.02)
        assert summary["quantiles"]["99"] == pytest.approx(1048, rel=0.02)

    def test_richness_wide_interval(self, amazon_abundance_csv, tmp_path):
        out = tmp_path / "amz3"
        assert run("richness", "--input", amazon_abundance_csv, "--seed", 23,
                   "--rho", 0.001, "--nhat", 3.949e11, "--draws", 30_000,
                   "--output-dir", out) == 0
        summary = json.loads((out / "richness_summary.json").read_text())
        assert summary["quantiles"]["1"] == pytest.approx(7_752, rel=0.03)
        assert summary["quantiles"]["99"] == pytest.approx(29_058, rel=0.03)


def _per_cell_write_table(outdir, name, columns, rows, fmt, config, value_fmt):
    """The table writer as it was before rows were formatted in bulk: one cell at a time."""
    def cell(value):
        if isinstance(value, (bool, np.bool_)):
            return "true" if value else "false"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, float):
            return value_fmt % value
        return str(value)

    if fmt == "json":
        return cli._write_json(outdir, name, {
            "rows": [{c: (float(v) if isinstance(v, (float, np.floating)) else v)
                      for c, v in zip(columns, row)} for row in rows]}, config)
    path = os.path.join(outdir, f"{name}.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config: {config}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(cell(v) for v in row) + "\n")
    return path


class TestWriteTable:
    COLUMNS = ["i", "x", "mixed", "flag", "label", "i64", "f64", "bool"]

    def _rows(self, json_safe):
        rng = np.random.default_rng(5)
        rows = []
        for i in range(23):
            x = float(rng.normal() * 10.0 ** rng.integers(-8, 9))
            mixed = [i, x, np.float64(x), np.float32(x), True, "", "n/a",
                     np.int64(-i), np.bool_(i % 2), np.uint8(i)][i % 10]
            if json_safe and isinstance(mixed, (np.integer, np.bool_)):
                mixed = int(mixed)
            flag = bool(i % 3) if json_safe else np.bool_(i % 3)
            rows.append((i if json_safe else np.int64(i), np.float64(x), mixed, flag,
                         f"l{i:03d}"))
        return rows

    def _arrays(self):
        rng = np.random.default_rng(6)
        return [np.arange(23, dtype=np.int64) * -7,
                rng.normal(size=23) * 10.0 ** rng.integers(-8, 9, size=23),
                np.arange(23) % 3 == 0]

    @pytest.mark.parametrize("value_fmt", [cli._DRAW_FMT, cli._SUMMARY_FMT])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_same_bytes_as_per_cell_writer(self, fmt, value_fmt, tmp_path, monkeypatch):
        # the columns are the transposed rows (lists) plus int64, float64 and bool arrays;
        # the per-cell writer reads their rows, with numpy scalars where json allows them
        monkeypatch.setattr(cli, "_CSV_CHUNK", 4)  # chunks end mid-table and on its last row
        base, arrays = self._rows(json_safe=fmt == "json"), self._arrays()
        columns = [list(c) for c in zip(*base)] + arrays
        cells = [a.tolist() if fmt == "json" else list(a) for a in arrays]
        rows = [row + tuple(c[i] for c in cells) for i, row in enumerate(base)]
        config = json.dumps({"command": "test"})
        for n_rows in (0, 1, 4, 8, 23):
            old = _per_cell_write_table(str(tmp_path), "old", self.COLUMNS, rows[:n_rows],
                                        fmt, config, value_fmt)
            new = cli._write_table(str(tmp_path), "new",
                                   {h: c[:n_rows] for h, c in zip(self.COLUMNS, columns)},
                                   fmt, config, value_fmt)
            with open(old, "rb") as a, open(new, "rb") as b:
                assert a.read() == b.read()
        with pytest.raises(ValueError):
            cli._write_table(str(tmp_path), "bad", {"a": [1, 2], "b": arrays[0]}, fmt,
                             config, value_fmt)

    def test_memory_bounded_by_chunk(self, tmp_path, traced_peak):
        # the cells of one chunk of _CSV_CHUNK rows are the only per-row objects
        # alive: 1.74 MiB with chunks of 16,384 rows.  20,000 rows span more than
        # one chunk at either size; each traced row costs ~15 us
        size = np.arange(1, 20_001)
        value = np.sqrt(size) * 1.2345
        path, peak = traced_peak(lambda: cli._write_table(
            str(tmp_path), "t", {"size": size, "value": value}, "csv", "{}"))
        assert peak < 0.8
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[1] == "size,value" and len(lines) == 2 + size.size
        assert lines[-1] == "20000,%s" % (cli._SUMMARY_FMT % value[-1])

    def test_json_rows_equal_json_dump(self, tmp_path, monkeypatch):
        # int, float, bool and str columns, as arrays and as lists, with chunks that
        # end mid-table; finite float columns go through the chunk template, columns
        # with nan or inf cell by cell
        monkeypatch.setattr(cli, "_CSV_CHUNK", 3)
        floats = [0.1, -2.5e-300, 1e16, -0.0, float("nan"), float("inf"), -float("inf")]
        finite = [-0.0, 5e-324, 0.1, 1e16, 1.7976931348623157e308, -2.5, 3.0]
        columns = {"i64": np.arange(7) * -9, "f64": np.array(floats),
                   "finite": finite, "finite64": np.array(finite),
                   "flags": np.arange(7) % 3 == 0, "u8": np.arange(7, dtype=np.uint8),
                   "ints": [2 ** 70, 0, -1, 3, 4, 5, 6], "floats": floats[::-1],
                   "bools": [True, False] * 3 + [True],
                   "label": ["a", "", "b\u00e9\n\"q\"", "%s", "50%", "\t", "z"],
                   "mixed": [1, 2.5, "s", True, None, np.float32(0.5), np.float64(-0.0)],
                   "a key\u00e9": np.linspace(0.0, 1.0, 7)}
        config = json.dumps({"command": "test"})
        for n_rows in (0, 1, 3, 7):
            cols = {h: c[:n_rows] for h, c in columns.items()}
            rows = [{h: (float(v) if isinstance(v, (float, np.floating)) else v)
                     for h, v in zip(cols, row)}
                    for row in zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                                     for c in cols.values()))]
            path = cli._write_table(str(tmp_path), "t", cols, "json", config)
            want = json.dumps({"rows": rows, "_config": json.loads(config)}, indent=1,
                              sort_keys=True) + "\n"
            with open(path, encoding="utf-8") as fh:
                assert fh.read() == want

    def test_json_memory_bounded_by_chunk(self, tmp_path, traced_peak):
        # the accumulation table of an Amazon-scale simulate: as one dict per row it
        # took ~195 MiB of RSS; a chunk of _CSV_CHUNK rows at a time, ~0.8 MiB traced.
        # Each traced row costs ~9 us
        n = 553_949
        size = np.arange(1, n + 1)
        distinct = np.sqrt(size).astype(np.int64)
        path, peak = traced_peak(lambda: cli._write_table(
            str(tmp_path), "acc", {"size": size, "distinct": distinct}, "json", "{}"))
        assert peak < 2.0
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert text.count('"size": ') == n
        assert text.endswith('{\n   "distinct": %d,\n   "size": %d\n  }\n ]\n}\n'
                             % (distinct[-1], n))


class TestJsonMirror:
    def test_fit_json_outputs(self, tiny_csv, tmp_path):
        out = tmp_path / "fitj"
        assert run("fit", "--input", tiny_csv, "--seed", 1, "--sg", 1, 0.02, 52,
                   "--draws", 200, "--format", "json", "--output-dir", out) == 0
        summary = json.loads((out / "data_summary.json").read_text())
        assert summary == {"_config": summary["_config"], "n": 52, "k": 7,
                           "freq_counts": {"1": 3, "2": 1, "5": 1, "12": 1, "30": 1}}
        draws = json.loads((out / "draws.json").read_text())
        assert len(draws["rows"]) == 200


# Flags beyond --output-dir/--format/--seed, per subcommand, covering every branch
# of its command; each argv set runs in csv and in json format.
CONTRACT_RUNS = {
    "fit": [["--input", "{csv}", "--sg", 1, 0.02, 52, "--rho", 0.5, "--draws", 50],
            ["--n", 52, "--k", 7, "--family", "ap", "--gamma-prior", 1, 1,
             "--draws", 50]],
    "validate": [["--input", "{csv}", "--family", "dp", "--alpha", 2, "--replicates", 2,
                  "--grid-points", 10, "--r-max", 5],
                 ["--input", "{csv}", "--family", "dm", "--bound-h", 10, "--sigma", -1,
                  "--replicates", 2],
                 ["--input", "{csv}", "--family", "ap", "--gamma", 1, "--replicates", 2]],
    "richness": [["--input", "{csv}", "--nhat", 500, "--draws", 50],
                 ["--n", 52, "--k", 7, "--sg", 1, 0.02, 52, "--rho", 0.5,
                  "--nhat", 500, "--draws", 50]],
    "extrapolate": [["--input", "{csv}", "--alpha", 2, "--m", 3],
                    ["--n", 52, "--k", 7, "--family", "dm", "--bound-h", 10,
                     "--sigma", -1, "--m", 3],
                    ["--n", 52, "--k", 7, "--family", "ap", "--gamma", 1, "--m", 3,
                     "--replicates", 2]],
    "taxonomic": [["--input", "{tree}", "--levels", 3, "--sg", 0.3, 0.1, 100,
                   "--rho", 0.25, "--mcmc-iters", 40, "--burn-in", 10, "--threads", 1,
                   "--hyper-mu", 0, 0, "--hyper-sd", 10]],
    "simulate": [["--n", 30, "--family", "dp", "--alpha", 2],
                 ["--n", 30, "--family", "dm", "--bound-h", 4, "--sigma", -1],
                 ["--n", 30, "--family", "ap", "--gamma", 1],
                 ["--n", 30, "--levels-spec", "dp:3;dp:2;ap:0.8"]],
}


def _dests(command):
    """The namespace attributes the subcommand's parser can set."""
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions if a.dest != "help"}


def _attributes_read(argv):
    """Parse argv, run its command, and return the parsed attributes the command read."""
    read = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    args = cli._build_parser().parse_args([str(a) for a in argv], namespace=Recorder())
    read.clear()  # drop the parser's own lookups
    assert args.func(args) == 0
    return read


class TestFlagContract:
    @pytest.mark.parametrize("command", sorted(CONTRACT_RUNS))
    def test_every_flag_is_read(self, command, tiny_csv, tmp_path):
        tree = tmp_path / "tree.csv"
        tree.write_text(TREE, encoding="utf-8")
        read = set()
        for i, flags in enumerate(CONTRACT_RUNS[command]):
            for fmt in ("csv", "json"):
                argv = [str(f).format(csv=tiny_csv, tree=tree) for f in flags]
                read |= _attributes_read([command, *argv, "--seed", 3, "--format", fmt,
                                          "--output-dir", tmp_path / f"{i}{fmt}"])
        assert _dests(command) - read == set()

    @pytest.mark.parametrize("argv", [
        ["validate"],
        ["taxonomic"],
        ["simulate", "--family", "dp", "--alpha", 2],
        ["richness", "--n", 52, "--k", 7, "--nhat", 500, "--family", "ap", "--gamma", 3],
        ["fit", "--n", 52, "--k", 7, "--threads", 2],
    ], ids=["validate-no-input", "taxonomic-no-input", "simulate-no-n",
            "richness-family", "fit-threads"])
    def test_missing_or_foreign_flag_is_parse_error(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--seed", 1, "--output-dir", tmp_path / "x")
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["extrapolate", "--input", "{csv}", "--n", 999, "--k", 3, "--alpha", 2, "--m", 3],
        ["fit", "--input", "{csv}", "--k", 3],
        ["fit", "--n", 52, "--k", 7, "--family", "ap", "--sg", 5, 5, 5],
        ["fit", "--n", 52, "--k", 7, "--gamma-prior", 1, 1],
        ["simulate", "--n", 30, "--levels-spec", "dp:3;ap:0.8", "--gamma", 2],
        ["simulate", "--n", 30, "--levels-spec", "dp:3;dm:4", "--bound-h", 4],
        ["simulate", "--n", 30, "--levels-spec", "dp:3;dp:2", "--alpha", 2],
        ["simulate", "--levels-spec", "dp:3;dp:2", "--n", 30, "--family", "ap", "--sigma", -2],
        ["simulate", "--n", 30, "--levels-spec", "dp:3;dp:2", "--sigma", -1],
        ["extrapolate", "--n", 100, "--k", 10, "--family", "dm", "--bound-h", 20,
         "--alpha", 5, "--gamma", 3, "--m", 3],
        ["extrapolate", "--n", 100, "--k", 10, "--family", "dp", "--alpha", 5,
         "--bound-h", 7, "--m", 3],
        ["extrapolate", "--n", 100, "--k", 10, "--family", "ap", "--gamma", 2,
         "--alpha", 5, "--m", 3],
        ["validate", "--input", "{csv}", "--family", "ap", "--gamma", 1, "--bound-h", 10],
        ["validate", "--input", "{csv}", "--gamma", 1],
        ["simulate", "--n", 30, "--family", "dm", "--bound-h", 4, "--gamma", 2],
        ["simulate", "--n", 30, "--alpha", 2, "--bound-h", 4],
        ["extrapolate", "--n", 100, "--k", 10, "--family", "dp", "--alpha", 5,
         "--sigma", -2, "--m", 3],
        ["validate", "--input", "{csv}", "--family", "ap", "--gamma", 1, "--sigma", -1],
        ["simulate", "--n", 30, "--alpha", 2, "--sigma", -1],
    ], ids=["extrapolate-input-and-nk", "fit-input-and-k", "fit-ap-sg", "fit-dp-gamma-prior",
            "simulate-nested-gamma", "simulate-nested-bound-h", "simulate-nested-alpha",
            "simulate-nested-family-sigma", "simulate-nested-default-sigma",
            "extrapolate-dm-alpha-gamma", "extrapolate-dp-bound-h", "extrapolate-ap-alpha",
            "validate-ap-bound-h", "validate-dp-gamma", "simulate-dm-gamma",
            "simulate-dp-bound-h", "extrapolate-dp-sigma", "validate-ap-sigma",
            "simulate-dp-sigma"])
    def test_flag_the_branch_ignores_is_domain_error(self, argv, tiny_csv, tmp_path):
        # each flag is read by some branch of its subcommand, but not by the one taken
        out = tmp_path / "x"
        argv = [str(a).format(csv=tiny_csv) for a in argv]
        assert run(*argv, "--seed", 1, "--output-dir", out) == cli.EXIT_DOMAIN
        assert not out.exists()
