"""Shared test setup.

pytest's ``pythonpath`` config (pyproject.toml) puts ``src`` on the
in-process ``sys.path``, but tests that spawn ``sys.executable -m
repro...`` subprocesses (standalone shard hosts and the workers that
``--launch`` spawns) need the path in the environment too. Exporting
it here makes a bare ``python -m pytest`` work without installing the
package or setting PYTHONPATH by hand.
"""

import os
import pathlib
import sys

_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

_existing = os.environ.get("PYTHONPATH")
if not _existing:
    os.environ["PYTHONPATH"] = _SRC
elif _SRC not in _existing.split(os.pathsep):
    os.environ["PYTHONPATH"] = _SRC + os.pathsep + _existing

# The nightly deep parity run (`--hypothesis-profile=deep-parity`):
# 20x the default example budget. The columnar-lane parity properties
# and the wire codec's properties scale their per-PR example counts by
# the loaded profile's max_examples (`_examples` in
# tests/sim/test_vector_properties.py and tests/runtime/test_codec.py).
try:
    from hypothesis import settings as _hypothesis_settings
except ImportError:  # pragma: no cover - hypothesis is a test extra
    pass
else:
    _hypothesis_settings.register_profile(
        "deep-parity",
        max_examples=20 * _hypothesis_settings.get_profile("default").max_examples,
    )
