"""The import structure: a run loads the modules it executes and no more.

Package exports resolve lazily (PEP 562), so ``import repro`` loads no
submodule and a fleet run never loads the closed-system stack.  Each
test runs in a fresh interpreter, since this one has imported
everything already.
"""

import json
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Modules a fleet must run without: the closed-system stack, and any
#: metrics server.
CLOSED_SYSTEM = ("repro.core.system", "repro.policies", "repro.exec.registry",
                 "repro.telemetry.server")


def _fresh(code: str):
    """Run ``code`` in a new interpreter; return the JSON it prints."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


LOADED = ("def loaded():\n"
          "    return sorted(m for m in sys.modules if m.startswith('repro'))\n")


def test_import_repro_loads_no_submodule():
    loaded = _fresh("import json, sys\nimport repro\n" + LOADED
                    + "print(json.dumps(loaded()))\n")
    assert loaded == ["repro"]


def test_every_export_is_its_defining_modules_object():
    """With every submodule imported first (so a submodule that shares an
    exported name would have bound that name on its package), each name
    in each package's ``__all__`` is the object its defining module
    binds."""
    problems = _fresh(
        "import importlib, json, pkgutil, sys\n"
        "import repro\n"
        "names = [m.name for m in pkgutil.walk_packages(\n"
        "    repro.__path__, 'repro.') if m.name != 'repro.__main__']\n"
        "modules = [repro] + [importlib.import_module(n) for n in names]\n"
        "packages = [m for m in modules if hasattr(m, '__path__')]\n"
        "problems = []\n"
        "for package in packages:\n"
        "    table = getattr(package, '_EXPORTS', None)\n"
        "    if table is None:\n"
        "        problems.append(f'{package.__name__}: no export table')\n"
        "        continue\n"
        "    names = [n for ns in table.values() for n in ns]\n"
        "    if [n for n in package.__all__ if n != '__version__'] != names:\n"
        "        problems.append(f'{package.__name__}: __all__ != table')\n"
        "    for module, exported in table.items():\n"
        "        source = importlib.import_module(module)\n"
        "        for name in exported:\n"
        "            if getattr(package, name) is not getattr(source, name):\n"
        "                problems.append(f'{package.__name__}.{name} is not '\n"
        "                                f'{module}.{name}')\n"
        "print(json.dumps(problems))\n"
    )
    # repro.fastpath holds code rather than re-exports; every other
    # package lists its exports in one table.
    assert problems == ["repro.fastpath: no export table"]


@pytest.fixture(scope="module")
def fleet_modules():
    """The ``repro`` modules loaded after a tiny fleet is built, and after
    it has run."""
    return _fresh(
        "import json, sys\n" + LOADED
        + "from repro.cluster import FleetSimulator, PlacementPolicy\n"
        "from repro.workloads import poisson_arrivals\n"
        "arrivals = poisson_arrivals(400_000, 10_000_000, seed=0,\n"
        "                            instructions_per_kernel=50_000_000)\n"
        "fleet = FleetSimulator(4, arrivals, PlacementPolicy.CONSOLIDATE,\n"
        "                       round_cycles=2_500_000,\n"
        "                       horizon_cycles=10_000_000,\n"
        "                       rebalance_every=2,\n"
        "                       instructions_per_kernel=50_000_000)\n"
        "built = loaded()\n"
        "result = fleet.run()\n"
        "print(json.dumps({'built': built, 'ran': loaded(),\n"
        "                  'admissions': result.admissions}))\n"
    )


def test_fleet_runs_without_the_closed_system_stack(fleet_modules):
    assert fleet_modules["admissions"] > 0
    for name in CLOSED_SYSTEM:
        assert name not in fleet_modules["built"], name
        assert name not in fleet_modules["ran"], name


def test_fleet_run_imports_nothing_its_construction_did_not(fleet_modules):
    assert fleet_modules["ran"] == fleet_modules["built"]
