"""Every name the benchmark's traced replay wraps still lives where it looks.

``bench/tracing.py`` swaps the attributes in its ``_patch_table()`` for timing
wrappers, reading each with ``vars(owner)[attribute]``; a program change that
moves or renames one breaks the benchmark, which this suite does not run.
"""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _patch_table(monkeypatch):
    # tracing.py imports its sibling modules by bare name
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing._patch_table()


def test_every_patched_name_is_an_attribute_of_its_owner(monkeypatch):
    table = _patch_table(monkeypatch)
    assert len(table) == 29
    missing = [f"{getattr(owner, '__name__', owner)}.{attribute}"
               for owner, attribute, _name, _attrs in table
               if attribute not in vars(owner)]
    assert missing == []
