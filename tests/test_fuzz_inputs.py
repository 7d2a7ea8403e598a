"""Garbled inputs: every command either runs or exits 2 with one line.

Hypothesis replaces one field of ``model.json``, ``plan.json`` or
``stats.json``, or truncates or flips one bit of ``data.qtsr``,
``weights.bin`` or ``qweights.bin``, then runs each command that reads the
file. ``model.json``'s replacement numbers stay small: its attributes and
dims size allocations, and a large garbled one could ask for more memory
than the test machine has. No field of ``stats.json`` or ``plan.json``
sizes an allocation, so theirs also take +-10**400, past every float and
int64. Each ``dims`` list of ``model.json`` is also reshaped, keeping its
element count, so the blob check passes and the graph's shape rules judge it.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chanq.cli import main

FILES = ("model.json", "weights.bin", "data.qtsr", "stats.json", "plan.json", "qweights.bin")
COMMANDS = {  # the commands that read each file
    "model.json": ("profile", "quantize", "eval"),
    "weights.bin": ("profile", "quantize", "eval"),
    "data.qtsr": ("profile", "eval"),
    "stats.json": ("quantize",),
    "plan.json": ("eval",),
    "qweights.bin": ("eval",),
}

JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.floats(-1e3, 1e3),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e300]),
    st.text(max_size=4), st.lists(st.integers(-2, 20), max_size=4), st.just({}),
)

BIG_VALUES = st.one_of(JSON_VALUES, st.sampled_from([10**400, -10**400]))

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    assert main(["gen-synthetic", "--arch", "residual", "--in-channels", "2", "--channels", "2",
                 "--image-size", "6", "--samples", "8", "--seed", "3", "--out", str(d)]) == 0
    assert main(["profile", "--model", str(d / "model.json"), "--dataset", str(d / "data.qtsr"),
                 "--out", str(d / "stats.json")]) == 0
    assert main(["quantize", "--model", str(d / "model.json"), "--stats", str(d / "stats.json"),
                 "--mode", "cw_laplace", "--out", str(d)]) == 0
    return d


def _paths(doc, prefix=()):
    """Every field of a JSON document, as a key path."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    out = []
    for key, value in items:
        out.append(prefix + (key,))
        out.extend(_paths(value, prefix + (key,)))
    return out


def _run(d: Path, command: str) -> tuple[int, str]:
    model = ["--model", str(d / "model.json"), "--weights", str(d / "weights.bin")]
    argv = {
        "profile": ["profile", *model, "--dataset", str(d / "data.qtsr"),
                    "--out", str(d / "s.json")],
        "quantize": ["quantize", *model, "--stats", str(d / "stats.json"),
                     "--mode", "cw_laplace", "--out", str(d / "q")],
        "eval": ["eval", *model, "--dataset", str(d / "data.qtsr"),
                 "--plan", str(d / "plan.json"), "--qweights", str(d / "qweights.bin"),
                 "--out", str(d / "report")],
    }[command]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


def _reshapes(dims):
    """Each dims list one entry from ``dims`` with its element count: an entry
    merged into the next, an entry split into its least factor and the rest
    (1 and itself if prime), or a 1 appended."""
    out = [dims + [1]]
    for i, d in enumerate(dims):
        if i + 1 < len(dims):
            out.append(dims[:i] + [d * dims[i + 1]] + dims[i + 2:])
        f = next((f for f in range(2, d) if d % f == 0), 1)
        out.append(dims[:i] + [f, d // f] + dims[i + 1:])
    return out


def _check_every_reader(bundle, name, garble, words=None):
    """Each reader runs (unless ``words`` is given) or exits 2 with one line
    (holding ``words``, if given)."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for f in FILES:
            shutil.copy(bundle / f, d / f)
        garble(d / name)
        for command in COMMANDS[name]:
            rc, err = _run(d, command)
            refused = rc == 2 and err.count("\n") == 1 and err.startswith("error: ")
            assert (refused and words in err) if words else (rc == 0 or refused), \
                (command, rc, err)


@pytest.mark.parametrize("name", ["model.json", "stats.json", "plan.json"])
def test_replaced_json_field(bundle, name):
    doc = json.loads((bundle / name).read_text())

    @SETTINGS
    @given(path=st.sampled_from(_paths(doc)),
           value=JSON_VALUES if name == "model.json" else BIG_VALUES)
    def check(path, value):
        def garble(p):
            new = json.loads(p.read_text())
            node = new
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            p.write_text(json.dumps(new))

        _check_every_reader(bundle, name, garble)

    check()


@pytest.mark.parametrize("name", ["data.qtsr", "weights.bin", "qweights.bin"])
def test_truncated_or_flipped_blob(bundle, name):
    size = (bundle / name).stat().st_size

    @SETTINGS
    @given(cut=st.booleans(), pos=st.integers(0, 8 * size - 1))
    def check(cut, pos):
        def garble(p):
            blob = bytearray(p.read_bytes())
            if cut:
                blob = blob[:pos // 8]
            else:
                blob[pos // 8] ^= 1 << (pos % 8)
            p.write_bytes(bytes(blob))

        _check_every_reader(bundle, name, garble)

    check()


def test_reshaped_dims(bundle):
    # every reshape changes a rank the graph fixes (input, kernel, fc weights,
    # bias), so each reader must refuse it naming the node or the input dims
    doc = json.loads((bundle / "model.json").read_text())
    entries = [(("input",), "input dims")] + [
        (("nodes", i, "params", role), f"node {node['name']}:")
        for i, node in enumerate(doc["nodes"]) for role in node["params"]]
    for path, words in entries:
        def entry(doc):
            for key in path:
                doc = doc[key]
            return doc

        for dims in _reshapes(entry(doc)["dims"]):
            def garble(p):
                new = json.loads(p.read_text())
                entry(new)["dims"] = dims
                p.write_text(json.dumps(new))

            _check_every_reader(bundle, "model.json", garble, words)
