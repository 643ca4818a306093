"""Sanity checks on the package's public surface."""

import repro


class TestExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_core_entry_points(self):
        assert callable(repro.run_scenario)
        assert callable(repro.run_experiment)
        assert callable(repro.required_replication)

    def test_error_hierarchy(self):
        from repro.errors import (
            ConfigurationError,
            DeadNodeError,
            EmptySelectionError,
            ExperimentNotFoundError,
            ReproError,
            SimulationError,
            SpaceMismatchError,
            UnknownNodeError,
        )

        for exc in (
            ConfigurationError,
            EmptySelectionError,
            ExperimentNotFoundError,
            SimulationError,
            SpaceMismatchError,
        ):
            assert issubclass(exc, ReproError)
        assert issubclass(UnknownNodeError, SimulationError)
        assert issubclass(DeadNodeError, SimulationError)

    def test_subpackage_alls_resolve(self):
        import repro.analysis
        import repro.core
        import repro.experiments
        import repro.gossip
        import repro.metrics
        import repro.shapes
        import repro.sim
        import repro.spaces
        import repro.viz

        for module in (
            repro.analysis,
            repro.core,
            repro.experiments,
            repro.gossip,
            repro.metrics,
            repro.shapes,
            repro.sim,
            repro.spaces,
            repro.viz,
        ):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)

    def test_one_sweep_surface(self):
        """``run_sweep`` / ``ExecOptions`` are the way to run a grid;
        the per-mode schedulers they replaced are gone, not aliased."""
        import repro.runtime
        import repro.runtime.cluster

        for module in (repro.runtime, repro.runtime.cluster):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)
        assert {
            "ExecOptions",
            "run_sweep",
            "execute_scenarios",
            "bind_fork_plan",
            "plan_fork_sweep",
            "ParallelRunner",
            "Coordinator",
        } <= set(repro.runtime.__all__)
        assert {"Coordinator", "spec_from_task", "collect_cells"} <= set(
            repro.runtime.cluster.__all__
        )
        assert {"ExecOptions", "execute_scenarios"} <= set(repro.__all__)
        for module in (repro, repro.runtime, repro.runtime.cluster):
            for removed in (
                "run_scenarios",
                "fork_scenarios",
                "distributed_scenarios",
                "run_fork_sweep",
                "run_distributed_sweep",
                "DistributedRun",
            ):
                assert removed not in module.__all__, (module.__name__, removed)
                assert not hasattr(module, removed), (module.__name__, removed)

    def test_every_public_item_documented(self):
        import inspect

        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{name} lacks a docstring"
