"""Environment-knob precedence: explicit arguments beat inherited env vars.

``REPRO_JOBS`` and ``REPRO_KERNEL`` are convenience defaults; an explicit
``jobs=``/``--jobs`` or ``set_kernel()``/``--kernel`` must win everywhere —
in-process, in the CLIs, and inside ``pmap`` worker processes (which
inherit the parent's environment).
"""

from __future__ import annotations

import json

import pytest

from repro import kernels, parallel


@pytest.fixture(autouse=True)
def _restore_kernel():
    """Pin and restore the process-global kernel around each test."""
    previous_kernel = kernels.get_kernel()
    yield
    kernels._active_kernel = previous_kernel


class TestJobsPrecedence:
    def test_explicit_jobs_beats_env(self, monkeypatch):
        monkeypatch.setenv(parallel.JOBS_ENV_VAR, "7")
        assert parallel.resolve_jobs(2) == 2
        assert parallel.resolve_jobs(1) == 1
        # env only applies when nothing explicit was passed
        assert parallel.resolve_jobs(None) == 7

    def test_env_ignored_when_invalid(self, monkeypatch):
        monkeypatch.setenv(parallel.JOBS_ENV_VAR, "many")
        with pytest.warns(UserWarning, match="non-integer"):
            assert parallel.resolve_jobs(None) == 1

    def test_pmap_explicit_jobs_beats_env(self, monkeypatch):
        """REPRO_JOBS=4 must not fan out a pmap explicitly asked to run
        serially (observable via the worker flag: the serial path never
        forks)."""
        monkeypatch.setenv(parallel.JOBS_ENV_VAR, "4")
        import os

        parent = os.getpid()
        pids = parallel.pmap(lambda _: os.getpid(), [0, 1, 2], jobs=1)
        assert set(pids) == {parent}


def _kernel_name(_task):
    return kernels.get_kernel().name


_TINY_SUITE = {
    "name": "tiny",
    "seed": 5,
    "topologies": [{"name": "g", "family": "grid", "rows": 3, "cols": 3}],
    "regimes": [{"name": "r", "capacity": 6.0, "num_requests": 6}],
    "modes": [{"name": "off", "kind": "offline", "bound": "none"}],
}


class TestKernelPrecedence:
    def test_explicit_set_kernel_beats_env(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "numpy")
        kernels.set_kernel("lists")
        assert kernels.get_kernel().name == "lists"

    def test_env_resolves_numpy(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "numpy")
        kernels._active_kernel = None
        assert kernels.get_kernel().name == "numpy"

    def test_unknown_env_kernel_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "bogus-kernel")
        kernels._active_kernel = None
        with pytest.warns(UserWarning, match="bogus-kernel"):
            assert kernels.get_kernel().name == "lists"

    def test_numba_env_falls_back_silently_when_absent(self, monkeypatch):
        """REPRO_KERNEL=numba on a numba-less host must resolve to the
        numpy tier with zero warnings and zero failures (the kernel
        contract's silent downgrade)."""
        if kernels.kernel_available("numba"):
            pytest.skip("numba is installed; the fallback path cannot fire")
        import warnings as _warnings

        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "numba")
        kernels._active_kernel = None
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            assert kernels.get_kernel().name == "numpy"

    def test_explicit_numba_selection_fails_fast_when_absent(self):
        if kernels.kernel_available("numba"):
            pytest.skip("numba is installed; the failure path cannot fire")
        with pytest.raises(ImportError):
            kernels.set_kernel("numba")

    def test_workers_inherit_explicit_kernel(self, monkeypatch):
        """An explicit kernel choice propagates into pmap workers even when
        the inherited environment says otherwise."""
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "lists")
        kernels.set_kernel("numpy")
        names = parallel.pmap(_kernel_name, [0, 1, 2, 3], jobs=2)
        assert names == ["numpy"] * 4

    def test_experiments_cli_kernel_flag_beats_env(self, monkeypatch):
        """--kernel wins over REPRO_KERNEL in the experiments CLI."""
        from repro.experiments import cli as experiments_cli

        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "numpy")
        kernels._active_kernel = None  # force lazy re-resolution from env

        observed = {}

        class _StubSpec:
            def run(self, **kwargs):
                observed["kernel"] = kernels.get_kernel().name
                from repro.experiments.harness import ExperimentResult

                return ExperimentResult(experiment_id="EX", title="stub")

        monkeypatch.setattr(
            experiments_cli, "get_experiment", lambda _id: _StubSpec()
        )
        assert experiments_cli.main(["run", "EX", "--kernel", "lists"]) == 0
        assert observed["kernel"] == "lists"

    def test_experiments_cli_unknown_kernel_errors(self):
        from repro.experiments import cli as experiments_cli

        with pytest.raises(SystemExit):
            experiments_cli.main(["run", "E1", "--kernel", "bogus"])

    def test_scenarios_cli_kernel_flag_beats_env(self, monkeypatch, tmp_path, capsys):
        """--kernel wins over REPRO_KERNEL in the scenarios CLI, and the
        bogus env value is never resolved."""
        from repro.scenarios.cli import main as scenarios_main

        spec_path = tmp_path / "suite.json"
        spec_path.write_text(json.dumps(_TINY_SUITE))

        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "bogus-kernel")
        kernels._active_kernel = None
        assert (
            scenarios_main(["run", str(spec_path), "--kernel", "numpy", "--json"])
            == 0
        )
        assert kernels.get_kernel().name == "numpy"
        json.loads(capsys.readouterr().out)
