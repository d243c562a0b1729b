"""What a process loads before it needs the simulator.

The sweep daemon, the ``oovr cache`` commands and a service client
only distribute, store and serve cells, so they start without numpy
and without any simulator package; a spec imports the simulator when
it is validated, built or decoded.  The packages ``repro``,
``repro.session`` and ``repro.service`` resolve their exports on first
use (PEP 562), so importing them loads nothing either.

Each start-up check runs a fresh interpreter under ``-X importtime``
and reads the modules it imported off that log.
"""

import importlib
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro
from repro.service import ServiceClient, ServiceError, SweepService
from repro.service.protocol import spec_to_wire, specs_to_wire
from repro.session import ExperimentConfig, ResultCache, Sweep

#: The packages that hold the simulator proper.
SIMULATOR = (
    "scene",
    "pipeline",
    "engine",
    "gpu",
    "memory",
    "core",
    "frameworks",
    "stats",
    "experiments",
    "trace",
)

TINY = ExperimentConfig(
    draw_scale=0.08, num_frames=2, workloads=("DM3-640", "WE")
)


def tiny_sweep() -> Sweep:
    return Sweep().preset(TINY).frameworks("baseline", "oo-vr")


def environment() -> dict:
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def imported(log: str) -> set:
    """The modules an ``-X importtime`` log names."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in log.splitlines()
        if line.startswith("import time:") and "|" in line
    } - {"package"}


def simulator_modules(modules) -> list:
    """numpy and every simulator package or module among ``modules``."""
    return sorted(
        name
        for name in modules
        if name.split(".")[0] == "numpy"
        or (
            name.startswith("repro.")
            and name.split(".")[1] in SIMULATOR
        )
    )


def run_logged(*argv) -> tuple:
    """Run ``python -X importtime ARGV``: (stdout, imported modules)."""
    child = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        capture_output=True,
        text=True,
        env=environment(),
        check=True,
    )
    return child.stdout, imported(child.stderr)


class TestWhatLoadsAtStart:
    def test_the_log_names_what_loads(self):
        """The check itself: a scene import shows numpy and the
        simulator in the log."""
        _, modules = run_logged("-c", "import repro.scene")
        assert "numpy" in modules
        assert "repro.scene.synthetic" in simulator_modules(modules)

    def test_the_service_client_loads_no_simulator(self):
        _, modules = run_logged("-c", "import repro.service.client")
        assert "repro.service.client" in modules
        assert simulator_modules(modules) == []

    def test_cache_commands_load_no_simulator(self, tmp_path):
        shards = tmp_path / "shards"
        for shard in ("0/2", "1/2"):
            tiny_sweep().run(shard=shard, cache=ResultCache(shards))
        merged = tmp_path / "merged"
        commands = (
            ("info", str(shards)),
            ("info", str(shards), "--json"),
            ("manifest", str(shards)),
            ("merge", str(merged), str(shards)),
            ("clear", str(merged)),
        )
        for command in commands:
            out, modules = run_logged("-m", "repro.cli", "cache", *command)
            assert "repro.session.cache" in modules, command
            assert simulator_modules(modules) == [], command
        # The commands did their work.
        assert "4 entr(y/ies) total" in run_logged(
            "-m", "repro.cli", "cache", "merge", str(merged), str(shards)
        )[0]

    def test_daemon_serves_status_without_the_simulator(self, tmp_path):
        """``oovr serve`` answers /health, /cache and /stats with no
        simulator loaded; its first submit then answers as an
        in-process service does, and still refuses unknown names."""
        cache = ResultCache(tmp_path / "cache")
        specs = tiny_sweep().run(cache=cache).specs
        log = tmp_path / "imports.txt"
        with open(log, "w", encoding="utf-8") as stderr:
            daemon = subprocess.Popen(
                [
                    sys.executable, "-X", "importtime", "-m", "repro.cli",
                    "serve", "--cache", str(cache.root), "--port", "0",
                ],
                stdout=subprocess.PIPE,
                stderr=stderr,
                text=True,
                env=environment(),
            )
        try:
            line = daemon.stdout.readline()
            url = re.search(r"listening on (http://\S+)", line).group(1)
            client = ServiceClient(url)
            assert client.health()["ok"] is True
            assert client.cache_status()["entries"] == len(specs)
            assert client.stats()["jobs"] == []
            modules = imported(Path(log).read_text(encoding="utf-8"))
            assert "repro.service.server" in modules
            assert simulator_modules(modules) == []

            reply = client.submit(specs)
            local = SweepService(ResultCache(cache.root)).submit(
                specs_to_wire(specs)
            )
            for status in (reply, local):
                del status["job"]
            assert reply == local
            assert (reply["state"], reply["hits"]) == ("done", len(specs))

            unknown = dict(spec_to_wire(specs[0]), framework="no-such")
            with pytest.raises(ServiceError, match="400: unknown framework"):
                client._request("POST", "/sweeps", {"specs": [unknown]})
            client.close()
        finally:
            daemon.terminate()
            daemon.wait(timeout=30)
            daemon.stdout.close()


PACKAGES = ("repro", "repro.session", "repro.service")

#: Where each exported constant is defined; classes and functions
#: name their module themselves (``__module__``).
CONSTANTS = {
    "BENCHMARKS": "repro.scene.benchmarks",
    "WORKLOADS": "repro.workloads",
    "FAST": "repro.session.spec",
    "FULL": "repro.session.spec",
    "DEFAULT_FRAMES": "repro.session.spec",
    "DEFAULT_SEED": "repro.session.spec",
    "RECORD_FIELDS": "repro.session.spec",
    "EXECUTOR_NAMES": "repro.session.executor",
    "ResultCallback": "repro.session.executor",
    "SERVER_ENV": "repro.service.client",
    "PROTOCOL_VERSION": "repro.service.protocol",
    "DEFAULT_LEASE_TIMEOUT": "repro.service.server",
}


def exports(package):
    module = importlib.import_module(package)
    return module, [name for name in module.__all__ if name != "__version__"]


class TestLazyExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_each_name_is_its_defining_modules_object(self, package):
        module, names = exports(package)
        for name in names:
            value = getattr(module, name)
            if name in CONSTANTS:
                home = CONSTANTS[name]
            else:
                assert isinstance(value, (type, types.FunctionType)), name
                assert value.__name__ == name
                home = value.__module__
            assert getattr(importlib.import_module(home), name) is value

    @pytest.mark.parametrize("package", PACKAGES)
    def test_star_import_binds_the_same_objects(self, package):
        module, names = exports(package)
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        del namespace["__builtins__"]
        assert set(namespace) == set(module.__all__)
        for name in names:
            assert namespace[name] is getattr(module, name)

    @pytest.mark.parametrize("package", PACKAGES)
    def test_unknown_names_raise_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            module.nope  # noqa: B018
        assert not hasattr(module, "register_executor")
        with pytest.raises(ImportError):
            exec(f"from {package} import nope", {})

    def test_dir_lists_every_name_before_first_use(self):
        """In a fresh interpreter ``dir()`` already lists every export,
        and listing them imports nothing."""
        script = (
            "import importlib, json, sys\n"
            f"packages = {list(PACKAGES)!r}\n"
            "missing = {}\n"
            "for name in packages:\n"
            "    module = importlib.import_module(name)\n"
            "    missing[name] = sorted(set(module.__all__) - set(dir(module)))\n"
            "print(json.dumps([missing, sorted(sys.modules)]))\n"
        )
        out, _ = run_logged("-c", script)
        missing, modules = json.loads(out)
        assert missing == {package: [] for package in PACKAGES}
        assert simulator_modules(modules) == []
        assert "repro.session.session" not in modules
