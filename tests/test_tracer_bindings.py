"""The traced benchmark (perfbench/tracer.py) wraps package functions by
the name their callers look up; every such binding must still exist, or
the traced run fails before it starts."""

import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    tracer = _load_tracer()
    points = tracer.SPAN_POINTS + tracer.COUNT_POINTS
    bindings = []
    for module, path, _ in points:
        owner, attr = tracer._resolve(module, path)
        # traced() reads the binding from the owner's own namespace
        assert callable(owner.__dict__.get(attr)), (module, path)
        bindings.append((owner, attr, owner.__dict__[attr]))
    with tracer.traced(tracer.Recorder()):
        pass
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in bindings)


def test_only_the_traced_bindings_are_unused_imports():
    # "# noqa: F401" keeps an import that its module never calls; the
    # tracer needs exactly these two, every other import must be used
    import fiverank

    package = pathlib.Path(fiverank.__file__).parent
    kept = sorted((path.stem, line.split("#")[0].strip().rstrip(","))
                  for path in package.glob("*.py")
                  for line in path.read_text(encoding="utf-8").splitlines()
                  if "# noqa: F401" in line)
    assert kept == [("isogeny", "minimal_model"), ("sieve", "valuation")]
