"""Graph IR tests: model files, validation errors, folding, execution."""

import json

import numpy as np
import pytest

from chanq.graph import (
    Graph,
    GraphError,
    LayerSpec,
    execute_float,
    fold_batchnorm,
    load_model,
    save_model,
    topological_order,
    validate,
)


def single_conv_graph(weight, bias, in_dims=(1, 1, 3, 3), attrs=None):
    node = LayerSpec("c0", "conv", ["x"], ["y"], attrs=attrs or {"stride": 1, "pad": 0},
                     params={"weight": "c0.weight", "bias": "c0.bias"})
    g = Graph(input_name="x", input_dims=in_dims, nodes=[node],
              params={"c0.weight": np.asarray(weight, np.float32),
                      "c0.bias": np.asarray(bias, np.float32)})
    return validate(g)


def conv_bn_graph(w, b, gamma, beta, mean, var, eps=0.0):
    conv = LayerSpec("c0", "conv", ["x"], ["t0"], attrs={"stride": 1, "pad": 0},
                     params={"weight": "c0.weight", "bias": "c0.bias"})
    bn = LayerSpec("bn0", "batchnorm", ["t0"], ["t1"], attrs={"epsilon": eps},
                   params={"gamma": "bn0.gamma", "beta": "bn0.beta",
                           "mean": "bn0.mean", "var": "bn0.var"})
    co = len(b)
    g = Graph(input_name="x", input_dims=(1, w.shape[1], 4, 4), nodes=[conv, bn],
              params={"c0.weight": w.astype(np.float32), "c0.bias": b.astype(np.float32),
                      "bn0.gamma": np.asarray(gamma, np.float32),
                      "bn0.beta": np.asarray(beta, np.float32),
                      "bn0.mean": np.asarray(mean, np.float32),
                      "bn0.var": np.asarray(var, np.float32)})
    assert co == w.shape[0]
    return validate(g)


class TestModelFiles:
    def test_single_conv_roundtrip(self, tmp_path):
        g = single_conv_graph(np.ones((2, 1, 3, 3)), np.array([0.5, -0.5]))
        save_model(g, tmp_path / "m.json", tmp_path / "w.bin")
        g2 = load_model(tmp_path / "m.json")
        assert len(g2.nodes) == 1
        for name in g.params:
            np.testing.assert_array_equal(g.params[name], g2.params[name])
        # weights blob byte-identical after re-save
        save_model(g2, tmp_path / "m2.json", tmp_path / "w2.bin")
        assert (tmp_path / "w.bin").read_bytes() == (tmp_path / "w2.bin").read_bytes()

    def test_dangling_tensor_named(self, tmp_path):
        g = single_conv_graph(np.ones((1, 1, 1, 1)), np.zeros(1))
        save_model(g, tmp_path / "m.json", tmp_path / "w.bin")
        doc = json.loads((tmp_path / "m.json").read_text())
        doc["nodes"][0]["inputs"] = ["x7"]
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(GraphError, match="x7"):
            load_model(tmp_path / "m.json")

    def test_wrong_element_count(self, tmp_path):
        g = single_conv_graph(np.ones((1, 1, 1, 1)), np.zeros(1))
        save_model(g, tmp_path / "m.json", tmp_path / "w.bin")
        doc = json.loads((tmp_path / "m.json").read_text())
        doc["nodes"][0]["params"]["weight"]["len"] = 8
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(GraphError, match="weight"):
            load_model(tmp_path / "m.json")

    def test_parse_error(self, tmp_path):
        (tmp_path / "bad.json").write_text("{nope")
        with pytest.raises(GraphError):
            load_model(tmp_path / "bad.json")


class TestAttrPair:
    @pytest.mark.parametrize("kind, attrs, key, want", [
        ("conv", {}, "stride", (1, 1)),
        ("conv", {}, "pad", (0, 0)),
        ("maxpool", {"window": [2, 3]}, "stride", (2, 3)),
        ("avgpool", {"window": 2, "stride": 1}, "stride", (1, 1)),
        ("avgpool", {"window": 2}, "pad", (0, 0)),
        ("conv", {"stride": [2, 1], "pad": 3}, "pad", (3, 3)),
    ])
    def test_defaults(self, kind, attrs, key, want):
        assert LayerSpec("n", kind, ["x"], ["y"], attrs=attrs).attr_pair(key) == want

    @pytest.mark.parametrize("attrs", [{}, {"window": None}])
    def test_a_window_has_no_default(self, attrs):
        node = LayerSpec("p", "maxpool", ["x"], ["y"], attrs=attrs)
        for key in ("window", "stride"):
            with pytest.raises(GraphError, match="node p: missing attribute 'window'"):
                node.attr_pair(key)


class TestTopologicalOrder:
    def test_chain(self):
        a = LayerSpec("a", "relu", ["x"], ["t1"])
        b = LayerSpec("b", "relu", ["t1"], ["t2"])
        c = LayerSpec("c", "relu", ["t2"], ["t3"])
        assert [n.name for n in topological_order([c, b, a], {"x"})] == ["a", "b", "c"]

    def test_diamond(self):
        a = LayerSpec("a", "relu", ["x"], ["t1"])
        l = LayerSpec("l", "relu", ["t1"], ["t2"])
        r = LayerSpec("r", "relu", ["t1"], ["t3"])
        s = LayerSpec("s", "add", ["t2", "t3"], ["t4"])
        order = [n.name for n in topological_order([s, r, l, a], {"x"})]
        assert order[0] == "a" and order[-1] == "s"

    def test_cycle_rejected(self):
        a = LayerSpec("a", "relu", ["t2"], ["t1"])
        b = LayerSpec("b", "relu", ["t1"], ["t2"])
        with pytest.raises(GraphError, match="cycle"):
            topological_order([a, b], {"x"})


class TestFoldBatchnorm:
    def test_identity_bn(self):
        w = np.ones((1, 1, 1, 1))
        g = conv_bn_graph(w, np.array([1.0]), [1.0], [0.0], [0.0], [1.0])
        folded = fold_batchnorm(g)
        assert all(n.kind != "batchnorm" for n in folded.nodes)
        np.testing.assert_allclose(folded.params["c0.weight"], w)
        np.testing.assert_allclose(folded.params["c0.bias"], [1.0])

    def test_scale_two(self):
        g = conv_bn_graph(np.full((1, 1, 1, 1), 3.0), np.array([1.0]),
                          [2.0], [0.0], [0.0], [1.0])
        folded = fold_batchnorm(g)
        np.testing.assert_allclose(folded.params["c0.weight"], [[[[6.0]]]])
        np.testing.assert_allclose(folded.params["c0.bias"], [2.0])

    def test_shift_cancellation(self):
        g = conv_bn_graph(np.ones((1, 1, 1, 1)), np.array([0.0]),
                          [1.0], [5.0], [5.0], [1.0])
        folded = fold_batchnorm(g)
        np.testing.assert_allclose(folded.params["c0.bias"], [0.0])

    def test_preserves_outputs_random(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            co, ci = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            w = rng.normal(size=(co, ci, 3, 3))
            b = rng.normal(size=co)
            gamma = rng.uniform(0.5, 2.0, co)
            beta = rng.normal(size=co)
            mean = rng.normal(size=co)
            var = rng.uniform(0.1, 2.0, co)
            g = conv_bn_graph(w, b, gamma, beta, mean, var, eps=1e-5)
            folded = fold_batchnorm(g)
            x = rng.normal(size=(2, ci, 4, 4)).astype(np.float32)
            want, _ = execute_float(g, x)
            got, _ = execute_float(folded, x)
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_overflowing_fold_names_the_layer(self):
        # the scale 2**60 is finite; the folded weight 2**70 is not, in float32
        g = conv_bn_graph(np.full((1, 1, 1, 1), 2.0**70), np.array([0.0]),
                          [1.0], [0.0], [0.0], [2.0**-120])
        with pytest.raises(GraphError, match="node 'c0' weight: non-finite parameter values"):
            fold_batchnorm(g)

    @pytest.mark.parametrize("eps, var", [("1e-3", 1.0), (float("nan"), 1.0), (-1.0, 1.0),
                                          (0.0, 0.0)])
    def test_bad_epsilon_or_var_refused_at_validate(self, eps, var):
        with pytest.raises(GraphError, match="node bn0: "):
            conv_bn_graph(np.ones((1, 1, 1, 1)), np.array([0.0]), [1.0], [0.0], [0.0], [var],
                          eps=eps)

    def test_bn_without_linear_rejected(self):
        relu = LayerSpec("r", "relu", ["x"], ["t0"])
        bn = LayerSpec("bn", "batchnorm", ["t0"], ["t1"], attrs={"epsilon": 0.0},
                       params={"gamma": "bn.gamma", "beta": "bn.beta",
                               "mean": "bn.mean", "var": "bn.var"})
        ones = np.ones(2, np.float32)
        g = validate(Graph("x", (1, 2, 3, 3), [relu, bn],
                           {"bn.gamma": ones, "bn.beta": ones * 0, "bn.mean": ones * 0,
                            "bn.var": ones}))
        with pytest.raises(GraphError, match="follow"):
            fold_batchnorm(g)


class TestExecuteFloat:
    def test_identity_conv(self):
        g = single_conv_graph(np.ones((1, 1, 1, 1)), np.zeros(1))
        x = np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3)
        out, _ = execute_float(g, x)
        np.testing.assert_array_equal(out, x)

    def test_capture_is_preactivation(self):
        conv = LayerSpec("c0", "conv", ["x"], ["t0"], attrs={"stride": 1, "pad": 0},
                         params={"weight": "c0.weight", "bias": "c0.bias"})
        relu = LayerSpec("r0", "relu", ["t0"], ["t1"])
        g = validate(Graph("x", (1, 1, 2, 2), [conv, relu],
                           {"c0.weight": np.ones((1, 1, 1, 1), np.float32),
                            "c0.bias": np.array([-10.0], np.float32)}))
        x = np.ones((1, 1, 2, 2), np.float32)
        out, caps = execute_float(g, x, capture={"t0", "t1"})
        assert np.all(caps["t0"] < 0)
        assert np.all(caps["t1"] == 0)
        assert np.all(out == 0)

    def test_two_branch_add(self):
        c1 = LayerSpec("a", "conv", ["x"], ["t1"], attrs={"stride": 1, "pad": 0},
                       params={"weight": "a.weight", "bias": "a.bias"})
        c2 = LayerSpec("b", "conv", ["x"], ["t2"], attrs={"stride": 1, "pad": 0},
                       params={"weight": "b.weight", "bias": "b.bias"})
        s = LayerSpec("s", "add", ["t1", "t2"], ["t3"])
        g = validate(Graph("x", (1, 1, 1, 1), [c1, c2, s],
                           {"a.weight": np.ones((1, 1, 1, 1), np.float32),
                            "a.bias": np.zeros(1, np.float32),
                            "b.weight": np.full((1, 1, 1, 1), 2.0, np.float32),
                            "b.bias": np.zeros(1, np.float32)}))
        out, _ = execute_float(g, np.ones((1, 1, 1, 1), np.float32))
        assert out.reshape(()) == 3.0

    def test_shape_mismatch(self):
        g = single_conv_graph(np.ones((1, 1, 1, 1)), np.zeros(1))
        with pytest.raises(GraphError):
            execute_float(g, np.zeros((1, 2, 3, 3), np.float32))

    @pytest.mark.parametrize("kind", ["conv", "batchnorm"])
    def test_overflow_names_the_node(self, kind):
        # 2**100 * 2**100 is past float32's range; it warned and went on with inf
        big = 2.0**100
        if kind == "conv":
            g, name = single_conv_graph(np.full((1, 1, 1, 1), big), np.zeros(1)), "c0"
        else:
            g, name = conv_bn_graph(np.ones((1, 1, 1, 1)), np.zeros(1), [big], [0.0], [0.0],
                                    [1.0]), "bn0"
        with pytest.raises(GraphError, match=f"node {name}: float32 overflow"):
            execute_float(g, np.full(g.input_dims, big, np.float32))
