"""Every chanq entry point the traced benchmark wraps still exists.

``perfbench/layers.install`` replaces chanq functions by name with timing
wrappers, so a function renamed or removed in ``src/chanq`` would otherwise
show first as a failed traced benchmark run. The test imports ``perfbench``'s
``layers`` and ``spans`` and changes nothing in that directory.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_install_wraps_existing_entry_points_and_unwrap_restores_them():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    tracer = spans.Tracer()
    try:
        layers.install(tracer)  # an AttributeError names the missing entry point
        patches = list(tracer._patches)
        assert patches and all(getattr(owner, attr) is not original
                               for owner, attr, original in patches)
    finally:
        tracer.unwrap_all()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, (owner, attr)
