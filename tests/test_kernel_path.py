"""One kernel path: ``kernels.X`` is the implementation.

The batch kernels are plain module-level functions with no backend
registry behind them and no optional accelerator beside them.  Two
outside parties rely on how they are reached: ``bench/child.py`` times
them by *replacing module globals* (so every layer must call through the
module attribute), and the frozen ``bench/workloads.py`` still passes
``kernel_backend="numpy"`` (so the config field survives, inert).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from repro.cli import build_parser
from repro.errors import ConfigurationError
from repro.experiments.scenario import ScenarioConfig, prepare_scenario
from repro.metrics import collector
from repro.runtime.store import config_hash
from repro.sim.batch import kernels, split

SRC = Path(__file__).parent.parent / "src"

#: ``(module, name)`` of every global ``bench/child.py::install_shims``
#: replaces to count and time the kernels and the collector's metrics.
BENCH_SHIMMED = [
    *((collector, name) for name in (
        "homogeneity",
        "proximity",
        "average_storage",
        "per_node_cost",
    )),
    *((kernels, name) for name in (
        "merge_rank_truncate",
        "dedup_priority_truncate",
        "row_rank_sq",
        "topk_smallest",
        "radix_argsort",
    )),
    (split, "batch_split"),
]


def run_python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )


def test_layers_reach_every_kernel_through_its_module_global(monkeypatch):
    """The shim contract of ``bench/child.py``: a wrapper installed as
    the module global sees the calls.  A ``from .kernels import …`` in a
    layer, or a kernel inlined at its call site, would leave its wrapper
    at zero — and the bench's per-kernel metrics silently empty."""
    spies = {}
    for module, name in BENCH_SHIMMED:
        spies[name] = mock.Mock(wraps=getattr(module, name))
        monkeypatch.setattr(module, name, spies[name])
    config = ScenarioConfig(
        engine="batch", width=8, height=4, seed=1, metrics=collector.ALL_METRICS,
        failure_round=2, reinjection_round=None, total_rounds=5,
    )
    sim, *_ = prepare_scenario(config)
    sim.run(config.total_rounds)
    assert all(spy.called for spy in spies.values()), spies
    # The recorder reads the placement arrays on a batch simulation, and
    # still through the module globals the bench replaces.
    assert spies["homogeneity"].call_count == config.total_rounds
    assert spies["average_storage"].call_count == config.total_rounds
    assert all(
        call.args[-1] is sim.placement
        for name in ("homogeneity", "average_storage")
        for call in spies[name].call_args_list
    )


def test_one_name_per_kernel():
    assert not [name for name in vars(kernels) if name.endswith("_numpy")]


@pytest.mark.skipif(sys.version_info < (3, 10), reason="sys.stdlib_module_names")
def test_batch_package_imports_with_numba_blocked_and_needs_only_numpy():
    code = (
        "import sys\n"
        "sys.modules['numba'] = None  # makes ``import numba`` raise\n"
        "before = set(sys.modules)\n"
        "import repro.sim.batch\n"
        "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "extra = new - set(sys.stdlib_module_names) - {'numpy', 'repro', '__mp_main__'}\n"
        "sys.exit(repr(sorted(extra)) if extra else 0)\n"
    )
    out = run_python(code)
    assert out.returncode == 0, out.stderr


def test_a_batch_run_imports_nothing_more_of_numpy():
    """Some numpy calls pull a subpackage in on first use — plain
    ``np.unique(x)`` imports ``numpy.ma``, a megabyte that 128-node
    cells cannot hide.  A run through failure, recovery and every
    observer loads no numpy module that importing the engine did not."""
    code = (
        "import sys\n"
        "from repro.experiments.scenario import ScenarioConfig, prepare_scenario\n"
        "from repro.metrics import collector\n"
        "config = ScenarioConfig(engine='batch', width=8, height=4, seed=1,\n"
        "                        metrics=collector.ALL_METRICS, failure_round=2,\n"
        "                        reinjection_round=5, total_rounds=8)\n"
        "sim, *_ = prepare_scenario(config)\n"
        "before = set(sys.modules)\n"
        "sim.run(config.total_rounds)\n"
        "late = sorted(m for m in set(sys.modules) - before if m.startswith('numpy'))\n"
        "sys.exit(repr(late) if late else 0)\n"
    )
    out = run_python(code)
    assert out.returncode == 0, out.stderr


def test_event_config_with_the_bench_field_leaves_the_batch_engine_unimported():
    """Validating ``kernel_backend`` is a membership test: building an
    event-engine scenario the way ``bench/`` does must not execute
    ``repro/sim/batch/__init__.py``."""
    code = (
        "import sys\n"
        "from repro.experiments.scenario import ScenarioConfig, prepare_scenario\n"
        "config = ScenarioConfig(engine='event', kernel_backend='numpy', width=8,\n"
        "                        height=4, metrics=(), failure_round=None,\n"
        "                        reinjection_round=None, total_rounds=3)\n"
        "prepare_scenario(config)\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('repro.sim.batch'))\n"
        "sys.exit(repr(loaded) if loaded else 0)\n"
    )
    out = run_python(code)
    assert out.returncode == 0, out.stderr


def test_kernel_backend_field_is_inert_and_closed():
    assert config_hash(ScenarioConfig(kernel_backend="numpy")) == config_hash(
        ScenarioConfig(kernel_backend=None)
    )
    for removed in ("numba", "NUMPY", ""):
        with pytest.raises(ConfigurationError, match="removed"):
            ScenarioConfig(kernel_backend=removed)


@pytest.mark.parametrize("command", (["run", "fig6a"], ["sweep"]))
def test_the_cli_has_no_kernel_backend_flag(command):
    with pytest.raises(SystemExit):
        build_parser().parse_args([*command, "--kernel-backend", "numba"])
