"""Fixtures shared by more than one test module."""

import numpy as np
import pytest

from chanq.cli import main
from chanq.graph import Graph, LayerSpec, save_model, validate
from chanq.tensorfile import write_tensor


@pytest.fixture(scope="module")
def bn_bundle(tmp_path_factory):
    """conv0 -> bn -> relu -> pool -> fc, with attributes the synthetic archs
    never write: a batchnorm (epsilon 1e-3), a conv with no stride and a
    maxpool with neither stride nor pad. Holds model.json, weights.bin,
    data.qtsr (8 samples), stats.json, plan.json and qweights.bin
    (cw_laplace)."""
    d = tmp_path_factory.mktemp("bn")
    rng = np.random.default_rng(7)

    def uniform(*shape, lo=-1.0, hi=1.0):
        return rng.uniform(lo, hi, shape).astype(np.float32)

    bn_roles = ("gamma", "beta", "mean", "var")
    nodes = [
        LayerSpec("conv0", "conv", ["x"], ["t0"], {"pad": 1},
                  {"weight": "conv0.weight", "bias": "conv0.bias"}),
        LayerSpec("bn", "batchnorm", ["t0"], ["t1"], {"epsilon": 1e-3},
                  {r: f"bn.{r}" for r in bn_roles}),
        LayerSpec("relu", "relu", ["t1"], ["t2"]),
        LayerSpec("pool", "maxpool", ["t2"], ["t3"], {"window": 2}),
        LayerSpec("fc", "fc", ["t3"], ["t4"], params={"weight": "fc.weight", "bias": "fc.bias"}),
    ]
    params = {"conv0.weight": uniform(3, 2, 3, 3), "conv0.bias": uniform(3),
              "bn.gamma": uniform(3, lo=0.5, hi=2.0), "bn.beta": uniform(3),
              "bn.mean": uniform(3), "bn.var": uniform(3, lo=0.5, hi=2.0),
              "fc.weight": uniform(4, 27), "fc.bias": uniform(4)}
    save_model(validate(Graph("x", (1, 2, 6, 6), nodes, params)), d / "model.json",
               d / "weights.bin")
    write_tensor(d / "data.qtsr", rng.normal(size=(8, 2, 6, 6)).astype(np.float32))
    assert main(["profile", "--model", str(d / "model.json"), "--dataset", str(d / "data.qtsr"),
                 "--out", str(d / "stats.json")]) == 0
    assert main(["quantize", "--model", str(d / "model.json"), "--stats", str(d / "stats.json"),
                 "--mode", "cw_laplace", "--out", str(d)]) == 0
    return d
