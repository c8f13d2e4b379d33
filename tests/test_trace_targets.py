"""The benchmark's tracer finds every traced name where it looks for it, and
puts every original back.  A refactor that moves a traced function fails
here rather than in a traced benchmark run."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from casebench.trace import TARGETS, Tracer  # noqa: E402


def test_every_target_is_defined_on_its_owner():
    missing = [(owner.__name__, attr) for owner, attr, _ in TARGETS if attr not in vars(owner)]
    assert missing == []


def test_install_then_remove_restores_every_original():
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in TARGETS]
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = [(owner.__name__, attr) for owner, attr, original in originals
                   if vars(owner)[attr] is not original]
    finally:
        tracer.remove()
    assert len(wrapped) == len(TARGETS)
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, (owner.__name__, attr)
