"""The traced benchmark run (perfbench/run.py --trace 1) wraps engine names
listed in perfbench/tracer.py; a rename or deletion must fail here, not
silently break the trace."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_tracer_target_resolves():
    targets = load_targets()
    assert targets
    for home, attr, span in targets:
        owner = importlib.import_module(home)
        if "." in attr:
            # methods are patched on their class, so they must be defined there
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            assert meth in vars(cls), span
            # an override in a subclass would take calls the patched method never sees
            overrides = [sub.__name__ for sub in vars(owner).values()
                         if isinstance(sub, type) and issubclass(sub, cls) and sub is not cls
                         and meth in vars(sub)]
            assert not overrides, (span, overrides)
        else:
            assert callable(getattr(owner, attr, None)), span
