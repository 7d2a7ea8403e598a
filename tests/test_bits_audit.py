"""The committed byte-identity check: plans, codes, stats, traces and
reports of the fixed CLI corpus hash as in ``tools/bits_audit.json``."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _audit():
    spec = importlib.util.spec_from_file_location("bits_audit", TOOLS / "bits_audit.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_the_corpus_hashes_as_the_manifest():
    audit = _audit()
    manifest = json.loads((TOOLS / "bits_audit.json").read_text())
    differ = audit.environment_mismatch(manifest)
    if differ:  # other rounding of exp, log and power may move the bits
        pytest.skip("; ".join(differ))
    assert audit.hash_mismatch(manifest) == []


def test_an_environment_that_differs_is_named(tmp_path):
    audit = _audit()
    manifest = {"environment": dict(audit.environment(), numpy="0.0"), "files": {}}
    assert audit.environment_mismatch(manifest) == [
        f"environment numpy: manifest '0.0', here {audit.environment()['numpy']!r}"]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert audit.check(str(path)) == 2
