"""The benchmark's trace mode (``perfbench/tracer.py``, behind
``perfbench/run.py --trace``) still fits the package: every kernel it
patches by name exists in ``opkit.kernels`` and is called from the
package, and it installs and uninstalls.  The tracer is loaded from its
file and left unchanged."""

import importlib.util
import inspect
import sys
from pathlib import Path

from opkit import kernels

from test_source import readers, source_trees

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_bindings():
    """Every function and class bound in a loaded opkit module, by
    (module, name)."""
    return {(m, name): obj
            for m, module in list(sys.modules.items())
            if m == "opkit" or m.startswith("opkit.")
            for name, obj in vars(module).items()
            if inspect.isfunction(obj) or inspect.isclass(obj)}


def test_every_traced_kernel_exists():
    missing = [name for name in load_tracer().KERNEL_LAYER
               if not hasattr(kernels, name)]
    assert missing == []


def test_every_traced_kernel_is_live():
    # A kernel counts as live when some module other than kernels reads it
    # as kernels.<name>; a dead one would trace no calls.
    trees = source_trees()
    del trees["kernels"]
    dead = [name for name in load_tracer().KERNEL_LAYER
            if not readers(trees, f"kernels.{name}")]
    assert dead == []


def test_tracer_installs_and_uninstalls():
    tracer = load_tracer().Tracer()
    before = package_bindings()
    try:
        tracer.install()
        patched = {key for key, obj in package_bindings().items()
                   if obj is not before.get(key)}
        assert ("opkit.kernels", "poly_mul") in patched
    finally:
        tracer.uninstall()
    after = package_bindings()
    assert all(after[key] is obj for key, obj in before.items())
