"""Garbled inputs: every command either runs or exits 2 with one line.

Hypothesis replaces one field of ``model.json``, ``plan.json`` or
``stats.json``, or truncates or flips one bit of ``data.qtsr``,
``weights.bin`` or ``qweights.bin``, then runs each command that reads the
file. ``model.json``'s replacement numbers stay small: its attributes and
dims size allocations, and a large garbled one could ask for more memory
than the test machine has. No field of ``stats.json`` or ``plan.json``
sizes an allocation, so theirs also take +-10**400, past every float and
int64. Each ``dims`` list of ``model.json`` is also reshaped, keeping its
element count, so the blob check passes and the graph's shape rules judge it,
and each list of ``plan.json``, and of one activation's and one parameter's
``stats.json`` records, is made one entry shorter and one longer. Every
object of the three JSON documents is also replaced by a list, a string and
null, and every list by an object. No refusal may quote Python's own errors.
The synthetic manifest holds no batchnorm and spells out every stride and
pad, so a second model (``conftest.bn_bundle``: a batchnorm, and a pool with
neither) takes the same manifest garbling and weight-blob flips.
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

# Python's own error wording: a refusal holding it names no field
PYTHON_WORDING = ("has no attribute", "indices must be", "unsupported operand",
                  "too large to convert", "not subscriptable")

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


def _at(doc, path):
    """The field of a JSON document at a key path."""
    for key in path:
        doc = doc[key]
    return doc


def _run(d: Path, command: str, mode: str) -> tuple[int, str]:
    model = ["--model", str(d / "model.json"), "--weights", str(d / "weights.bin")]
    argv = {
        "profile": ["profile", *model, "--dataset", str(d / "data.qtsr"),
                    "--out", str(d / "s.json")],
        "quantize": ["quantize", *model, "--stats", str(d / "stats.json"),
                     "--mode", mode, "--out", str(d / "q")],
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


def _check_every_reader(bundle, name, garble, words=None, modes=("cw_laplace",)):
    """Each reader (``quantize`` in each of ``modes``) runs (unless ``words``
    is given) or exits 2 with one line (holding ``words``, or each of a tuple
    of them, if given) in chanq's words, not Python's."""
    words = (words,) if isinstance(words, str) else words
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for f in FILES:
            shutil.copy(bundle / f, d / f)
        garble(d / name)
        for command in COMMANDS[name]:
            for mode in modes if command == "quantize" else modes[:1]:
                rc, err = _run(d, command, mode)
                refused = rc == 2 and err.count("\n") == 1 and err.startswith("error: ")
                assert (refused and all(w in err for w in words)) if words else \
                    (rc == 0 or refused), (command, mode, rc, err)
                assert not any(w in err for w in PYTHON_WORDING), (command, mode, err)


@pytest.mark.parametrize("name", ["model.json", "stats.json", "plan.json"])
def test_replaced_json_field(bundle, name):
    _replace_one_field(bundle, name)


def test_replaced_field_of_bn_model(bn_bundle):
    _replace_one_field(bn_bundle, "model.json")


def test_truncated_or_flipped_bn_weights(bn_bundle):
    _truncate_or_flip(bn_bundle, "weights.bin")


def _replace_one_field(bundle, name):
    doc = json.loads((bundle / name).read_text())

    @SETTINGS
    @given(path=st.sampled_from(_paths(doc)),
           value=JSON_VALUES if name == "model.json" else BIG_VALUES)
    def check(path, value):
        def garble(p):
            new = json.loads(p.read_text())
            _at(new, path[:-1])[path[-1]] = value
            p.write_text(json.dumps(new))

        _check_every_reader(bundle, name, garble)

    check()


@pytest.mark.parametrize("name", ["data.qtsr", "weights.bin", "qweights.bin"])
def test_truncated_or_flipped_blob(bundle, name):
    _truncate_or_flip(bundle, name)


def _truncate_or_flip(bundle, name):
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
        for dims in _reshapes(_at(doc, path)["dims"]):
            def garble(p):
                new = json.loads(p.read_text())
                _at(new, path)["dims"] = dims
                p.write_text(json.dumps(new))

            _check_every_reader(bundle, "model.json", garble, words)


@pytest.mark.parametrize("name", ["stats.json", "plan.json"])
def test_list_lengths(bundle, name):
    # every list of the plan, and of one activation's and one parameter's
    # stats, one entry shorter and one longer (its last entry again): each
    # reader refuses it naming the list's tensor, layer or node; a short stats
    # field once ended cw_laplace in an IndexError and passed cw_max
    doc = json.loads((bundle / name).read_text())
    roots = [("tensors", "t1"), ("tensors", "conv0.weight")] if name == "stats.json" else [()]
    for root in roots:
        for path in _paths(_at(doc, root), root):
            if not isinstance(_at(doc, path), list):
                continue
            for edit in (lambda v: v[:-1], lambda v: v + v[-1:]):
                def garble(p):
                    new = json.loads(p.read_text())
                    _at(new, path[:-1])[path[-1]] = edit(_at(new, path))
                    p.write_text(json.dumps(new))

                # a stats path names its tensor, a plan path its tensor, layer or node
                _check_every_reader(bundle, name, garble, repr(path[1]),
                                    ("cw_laplace", "cw_max", "cw_pdf_aware"))


@pytest.mark.parametrize("name", ["model.json", "plan.json", "stats.json"])
def test_type_swaps(bundle, name):
    # every object replaced by a list, a string and null, and every list but the
    # rows of a numeric one by an object: each reader refuses it naming the field
    # and its node, tensor or layer; a node's params as a list once read as
    # "'list' object has no attribute 'items'"
    doc = json.loads((bundle / name).read_text())
    for path in _paths(doc):
        value = _at(doc, path)
        if isinstance(value, dict):
            swaps = [[], "x", None]
        elif isinstance(value, list) and not isinstance(_at(doc, path[:-1]), list):
            swaps = [{}]
        else:
            continue
        for swap in swaps:
            def garble(p):
                new = json.loads(p.read_text())
                _at(new, path[:-1])[path[-1]] = swap
                p.write_text(json.dumps(new))

            _check_every_reader(bundle, name, garble, _named(doc, name, path))


def _named(doc, name, path):
    """The words a refusal of the field at ``path`` holds: the field (a list
    entry's list) and, below the top level, its node, tensor or layer."""
    field = path[-1] if isinstance(path[-1], str) else path[-2]
    if name != "model.json":  # plan tensor 't1', plan layer 'conv0', stats of tensor 't1'
        return (field, repr(path[1])) if len(path) > 1 else (field,)
    if len(path) < 3:  # the input, its dims, the node list or one node
        return (field,)
    if path[2] == "attrs" and len(path) > 3:  # an attribute is judged at validation
        return field, f"node {doc['nodes'][path[1]]['name']}:"
    return field, f"nodes[{path[1]}]"
