"""Public API stability: the names downstream users import must exist."""

import importlib

import pytest

PUBLIC_API = {
    "repro": [
        "Session",
        "RunResult",
        "SystemConfig",
        "paper_config",
        "scaled_config",
        "DepMode",
    ],
    "repro.api": ["Session", "RunResult"],
    "repro.obs": [
        "EventKind",
        "TraceEvent",
        "TraceSink",
        "EventTrace",
        "Observer",
        "IntervalSample",
        "IntervalTimeline",
        "chrome_trace_dict",
        "events_to_jsonl",
        "write_chrome_trace",
        "write_event_log",
    ],
    "repro.mem": ["AddressMap", "Region", "VirtualAllocator", "PageTable", "TLB"],
    "repro.noc": ["Mesh", "hops", "xy_route", "MessageClass", "TrafficStats"],
    "repro.cache": ["CacheBank", "L1Cache", "NucaLLC", "CoherenceDirectory"],
    "repro.nuca": ["NucaPolicy", "SNuca", "RNuca", "BYPASS", "PageClassifier"],
    "repro.core": [
        "RRT",
        "TdNucaISA",
        "RTCacheDirectory",
        "decide_placement",
        "TdNucaPolicy",
        "FlushCompletionRegister",
    ],
    "repro.runtime": [
        "Task",
        "Dependency",
        "Program",
        "TaskGraph",
        "Executor",
        "TdNucaRuntime",
        "OrderedScheduler",
    ],
    "repro.sim": ["Machine", "build_machine", "MemoryControllers"],
    "repro.faults": [
        "FaultSchedule",
        "FaultInjector",
        "FaultStats",
        "InvariantChecker",
        "parse_fault_spec",
        "check_machine",
    ],
    "repro.energy": ["EnergyTally", "EnergyBreakdown"],
    "repro.stats": [
        "BlockCensus",
        "format_table",
        "timeline_bank_heatmap",
        "timeline_link_heatmap",
    ],
    "repro.workloads": ["Workload", "get_workload", "BENCHMARKS"],
    "repro.experiments": ["ExperimentResult", "figures", "paper"],
}


@pytest.mark.parametrize("module,names", PUBLIC_API.items())
def test_exports_exist(module, names):
    mod = importlib.import_module(module)
    for name in names:
        assert hasattr(mod, name), f"{module}.{name} missing"


@pytest.mark.parametrize("module", list(PUBLIC_API))
def test_all_is_importable(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module}.__all__ lists missing {name}"


def test_every_public_module_has_docstring():
    import pathlib

    root = pathlib.Path("src/repro")
    for path in root.rglob("*.py"):
        source = path.read_text()
        if path.name == "__main__.py":
            continue
        mod_doc = source.lstrip().startswith(('"""', "'''"))
        assert mod_doc, f"{path} lacks a module docstring"
