"""The bench tracer binds to every toruskit attribute it names."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _binding_owner(binding):
    # (object holding the attribute, attribute name) of "module:a.b"
    module_name, path = binding.split(":")
    owner = importlib.import_module(f"toruskit.{module_name}")
    *parts, attr = path.split(".")
    for part in parts:
        owner = getattr(owner, part)
    return owner, attr


def test_tracer_installs_every_binding_and_uninstalls():
    # a function that a refactor deletes or renames would fail install here,
    # not only in the bench self-check
    tracing = _load_tracing()
    bindings = [b for _, names, _ in tracing.BINDINGS for b in names]
    assert len(bindings) == len(set(bindings)) == 37
    owners = [_binding_owner(b) for b in bindings]
    before = [owner.__dict__[attr] for owner, attr in owners]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert len(tracer._patches) == 37
        patched = [owner.__dict__[attr] for owner, attr in owners]
        assert all(new is not old for new, old in zip(patched, before))
    finally:
        tracer.uninstall()
    assert not tracer._patches
    assert all(owner.__dict__[attr] is old
               for (owner, attr), old in zip(owners, before))
