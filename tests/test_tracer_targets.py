"""The benchmark tracer's targets resolve in the package it patches.

``bench/tracer.py``'s ``Tracer.install`` looks every (module, function) key
up with ``getattr`` before a traced run starts, so a function renamed or
removed from ``toepblocks`` fails every traced benchmark run.  The module is
imported here and read, never installed: ``install`` patches the package's
namespaces.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

import toepblocks
from toepblocks import cli


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize("key", sorted({**TRACER.TARGETS, **TRACER.COUNTED}),
                         ids=".".join)
def test_every_traced_function_resolves(key):
    module, name = key
    assert callable(getattr(getattr(toepblocks, module), name))


def test_traced_modules_and_symbol_fields_exist():
    for module in TRACER.MODULES:
        assert getattr(toepblocks, module).__name__ == f"toepblocks.{module}"
    assert callable(cli.build_symbol)
    fields = {f.name for f in dataclasses.fields(toepblocks.Symbol)}
    assert set(TRACER.SYMBOL_FIELDS) <= fields
