"""The public surface is what programs use.

A *program* is a script under ``examples/`` or ``benchmarks/``, the
CLI, or a module of another subpackage.  Each subpackage's ``__all__``
(and so its re-exports) is exactly the set of names programs import
from it, read off their source with ``ast``; tests reach everything
else through module paths such as ``repro.core.analytics``.  Settings
no caller passes are constants, and the chaos fault kinds no scenario
injects stay deleted.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
PACKAGES = sorted(p.name for p in SRC.iterdir()
                  if (p / "__init__.py").exists())


def _programs():
    for directory in ("examples", "benchmarks"):
        yield from sorted((ROOT / directory).rglob("*.py"))
    yield SRC / "cli.py"
    for package in PACKAGES:
        yield from sorted((SRC / package).rglob("*.py"))


def _owner(path: Path) -> str | None:
    """The subpackage a source file belongs to (None outside one)."""
    parts = path.relative_to(SRC).parts if path.is_relative_to(SRC) else ()
    return parts[0] if len(parts) > 1 else None


def _absolute(path: Path, node: ast.ImportFrom) -> str | None:
    """The module an ``ImportFrom`` names, relative imports resolved."""
    if not node.level:
        return node.module
    parts = list(path.relative_to(ROOT / "src").with_suffix("").parts)
    base = parts[:-node.level]
    return ".".join(base + ([node.module] if node.module else []))


def _is_submodule(package: str, name: str) -> bool:
    return ((SRC / package / f"{name}.py").exists()
            or (SRC / package / name / "__init__.py").exists())


def _imported_names() -> dict[str, set[str]]:
    """package -> the names programs take from ``repro.<package>``:
    ``from repro.<package> import name``, and ``alias.name`` on a
    package bound by ``from repro import <package>``."""
    used: dict[str, set[str]] = {p: set() for p in PACKAGES}
    for path in _programs():
        owner = _owner(path)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = _absolute(path, node)
                for alias in node.names:
                    if module == "repro" and alias.name in PACKAGES:
                        aliases[alias.asname or alias.name] = alias.name
                    elif (module and module.count(".") == 1
                          and module.startswith("repro.")):
                        package = module.split(".")[1]
                        if (package in used and package != owner
                                and not _is_submodule(package, alias.name)):
                            used[package].add(alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    parts = alias.name.split(".")
                    if (len(parts) == 2 and parts[0] == "repro"
                            and parts[1] in PACKAGES and alias.asname):
                        aliases[alias.asname] = parts[1]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)):
                package = aliases.get(node.value.id)
                if package is not None and package != owner:
                    used[package].add(node.attr)
    return used


@pytest.fixture(scope="module")
def imported():
    return _imported_names()


def test_eleven_subpackages():
    assert len(PACKAGES) == 11


@pytest.mark.parametrize("package", PACKAGES)
def test_all_is_what_programs_import(imported, package):
    module = importlib.import_module(f"repro.{package}")
    assert sorted(module.__all__) == sorted(imported[package])
    for name in module.__all__:
        assert getattr(module, name) is not None, name


def test_obs_exports_nothing_lazily():
    from repro import obs

    assert "__getattr__" not in vars(obs)
    assert not hasattr(obs, "SamplingProfiler")
    assert not hasattr(obs, "critical_path")


# callable -> the settings no caller passed, now constants.
_RETIRED = {
    "repro.core.framework:LogAnalyticsFramework.__init__": (
        "vnodes", "registry", "placement", "consistency", "flush_threshold"),
    "repro.core.framework:LogAnalyticsFramework.streaming_ingestor": (
        "batch_interval", "group_id"),
    "repro.core.framework:LogAnalyticsFramework.telemetry_pipeline": (
        "topic", "registry", "tracer"),
    "repro.core.framework:LogAnalyticsFramework.attach_detection": (
        "topic", "detectors", "group_id"),
    "repro.detect.engine:DetectionEngine.__init__": ("topic", "detectors"),
    "repro.detect.engine:DetectionPipeline.__init__": ("topic", "group_id"),
    "repro.detect.detectors:EWMARateDetector.__init__": (
        "alpha", "threshold"),
    "repro.detect.detectors:LeadLagDetector.__init__": ("min_corr",),
    "repro.detect.detectors:LustreStormDetector.__init__": (
        "baseline_alpha", "fs_types", "min_rate", "min_samples",
        "rate_multiple", "sustain"),
    "repro.detect.detectors:SpatialBurstDetector.__init__": (
        "lift_threshold", "min_share"),
    "repro.genlog.generator:LogGenerator.__init__": (
        "hot_multiplier", "storm_node_fraction"),
    "repro.genlog.jobs:JobGenerator.__init__": (
        "num_apps", "jobs_per_hour", "mean_duration_hours",
        "abort_fraction", "node_fail_fraction"),
    "repro.core.prediction:mine_precursors": (
        "candidate_types", "target_types", "min_precision", "min_lift"),
    "repro.core.prediction:evaluate_predictor": ("target_types",),
    "repro.core.correlation:te_pair": ("levels",),
    "repro.core.correlation:te_matrix": ("levels",),
    "repro.core.correlation:te_significance": ("levels", "seed"),
    "repro.core.profiles:score_run": ("max_log10_p",),
    "repro.ingest.batch:batch_ingest": ("min_partitions",),
    "repro.obs.trace:Tracer.__init__": ("record_durations",),
    "repro.cassdb.cluster:Cluster.insert": ("write_ts",),
    "repro.cassdb.schema:TableSchema.__init__": (
        "key_codecs", "index_interval"),
    "repro.cassdb.node:StorageNode.__init__": ("hints_provider",),
    "repro.cassdb.sstable:SSTable.__init__": ("hints", "generation"),
    "repro.cassdb.sstable:merge_sstables": ("hints",),
    "repro.bus.producer:Producer.send": ("topic",),
}


@pytest.mark.parametrize("target", sorted(_RETIRED))
def test_a_retired_setting_is_no_parameter(target):
    module_name, qualname = target.split(":")
    obj = importlib.import_module(module_name)
    for attr in qualname.split("."):
        obj = getattr(obj, attr)
    params = inspect.signature(obj).parameters
    assert not set(_RETIRED[target]) & set(params), target


def test_unused_fault_kinds_are_gone():
    from repro import chaos
    from repro.chaos import gate, plan

    assert not hasattr(chaos, "ServerFaults")
    assert not hasattr(plan, "ServerFaults")
    fields = {f.name for f in dataclasses.fields(plan.FaultPlan)}
    assert not {"server", "slow_flush_ms"} & fields
    assert "server" not in inspect.signature(gate.FaultGate.arm).parameters
