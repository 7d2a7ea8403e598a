"""CLI command tests: exit codes, determinism, file plumbing."""

import argparse
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from chanq.cli import build_parser, main
from chanq.graph import load_model
from chanq.synthetic import ARCHS, INPUT_FAMILIES
from chanq.tensorfile import read_tensor, write_tensor


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    d = tmp_path_factory.mktemp("bundle")
    rc = main([
        "gen-synthetic", "--arch", "hetero_conv", "--in-channels", "4", "--channels", "4",
        "--image-size", "8", "--samples", "60", "--scale-span", "3", "--seed", "5",
        "--out", str(d),
    ])
    assert rc == 0
    return d


class TestGenSynthetic:
    def test_deterministic(self, tmp_path):
        args = ["gen-synthetic", "--arch", "classifier", "--channels", "4", "--image-size", "8",
                "--samples", "12", "--seed", "1"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("model.json", "weights.bin", "data.qtsr", "labels.qtsr"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_invalid_spec(self, tmp_path):
        rc = main(["gen-synthetic", "--channels", "1", "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("flag", ["--scale-span", "--input-scale-span"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_scale_span(self, tmp_path, capsys, flag, value):
        # a NaN span wrote NaN weights, and every later command took them
        rc = main(["gen-synthetic", flag, value, "--out", str(tmp_path)])
        TestNumbersFailClosed._assert_one_line(capsys, rc, "scale spans must be finite")
        assert not (tmp_path / "model.json").exists()

    # a 400-bit span wrote infinite weights or inputs with exit 0; in_channels
    # 0 or -1 warned, then failed naming no flag ("negative dimensions ...")
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("args, words", [
        (["--scale-span", "400"], "scale span 400.0 bits puts node conv3's weights past "
                                  "float32's range"),
        (["--input-scale-span", "400"], "input scale span 400.0 bits puts the inputs past "
                                        "float32's range"),
        (["--in-channels", "0"], "inconsistent synthetic spec: needs in_channels >= 1"),
        (["--in-channels", "-1"], "inconsistent synthetic spec: needs in_channels >= 1"),
        # inputs that fit float32 overflowed the float engine: exit 0, labels of inf/NaN logits
        (["--input-scale-span", "250", "--channels", "4", "--image-size", "8"],
         "node avgpool5: float32 overflow"),
    ], ids=["scale_span", "input_scale_span", "in_channels_0", "in_channels_-1",
            "engine_overflow"])
    def test_spec_it_cannot_write(self, tmp_path, capsys, args, words):
        rc = main(["gen-synthetic", *args, "--samples", "8", "--out", str(tmp_path / "out")])
        TestNumbersFailClosed._assert_one_line(capsys, rc, words)
        assert not (tmp_path / "out").exists()

    # the generator restated each arch's sizes: at 6 and 7 the classifier's fc
    # drew its weights with 1 / sqrt(0), a RuntimeWarning (exit 3 with warnings
    # as errors); its sizes now come from the shape rule, which names the node
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("size", [6, 7, 8, 9])
    @pytest.mark.parametrize("arch", ARCHS)
    def test_every_arch_at_small_sizes(self, tmp_path, capsys, arch, size):
        out = tmp_path / "out"
        rc = main(["gen-synthetic", "--arch", arch, "--image-size", str(size), "--in-channels",
                   "1", "--channels", "2", "--samples", "2", "--out", str(out)])
        if arch == "classifier" and size < 8:
            TestNumbersFailClosed._assert_one_line(
                capsys, rc, "error: node avgpool5: empty output: input 1x1, window 2x2")
            assert not out.exists()
        else:
            assert rc == 0 and capsys.readouterr().err == ""
            g = load_model(out / "model.json")
            assert g.input_dims == (1, 1, size, size) and g.shapes[g.output_name] == (1, 10)

    def test_input_family_choices_are_the_generators(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        family = next(a for a in sub.choices["gen-synthetic"]._actions
                      if a.dest == "input_family")
        assert family.choices is INPUT_FAMILIES

    def test_usage_error(self):
        assert main(["gen-synthetic"]) == 1  # missing --out

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1


class TestProfile:
    def test_profile_writes_stats(self, bundle, tmp_path):
        out = tmp_path / "stats.json"
        rc = main(["profile", "--model", str(bundle / "model.json"),
                   "--dataset", str(bundle / "data.qtsr"),
                   "--profile-samples", "16", "--seed", "3", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert "tensors" in doc and "t1" in doc["tensors"]

    def test_profile_deterministic(self, bundle, tmp_path):
        args = ["profile", "--model", str(bundle / "model.json"),
                "--dataset", str(bundle / "data.qtsr"),
                "--profile-samples", "16", "--seed", "3"]
        assert main(args + ["--out", str(tmp_path / "s1.json")]) == 0
        assert main(args + ["--out", str(tmp_path / "s2.json")]) == 0
        assert (tmp_path / "s1.json").read_bytes() == (tmp_path / "s2.json").read_bytes()

    def test_missing_model_is_data_error(self, bundle, tmp_path):
        rc = main(["profile", "--model", str(bundle / "nope.json"),
                   "--dataset", str(bundle / "data.qtsr"), "--out", str(tmp_path / "s.json")])
        assert rc == 2


@pytest.fixture(scope="module")
def profiled(bundle, tmp_path_factory):
    d = tmp_path_factory.mktemp("profiled")
    stats = d / "stats.json"
    assert main(["profile", "--model", str(bundle / "model.json"),
                 "--dataset", str(bundle / "data.qtsr"),
                 "--profile-samples", "24", "--seed", "1", "--out", str(stats)]) == 0
    return stats


class TestQuantizeEval:
    def test_quantize_layerwise_single_fl(self, bundle, profiled, tmp_path):
        out = tmp_path / "q_lw"
        assert main(["quantize", "--model", str(bundle / "model.json"), "--stats", str(profiled),
                     "--mode", "layerwise_max", "--out", str(out)]) == 0
        doc = json.loads((out / "plan.json").read_text())
        for td in doc["tensors"].values():
            assert len(set(td["fl"])) == 1

    def test_quantize_cw_and_roundtrip(self, bundle, profiled, tmp_path):
        out = tmp_path / "q_cw"
        assert main(["quantize", "--model", str(bundle / "model.json"), "--stats", str(profiled),
                     "--mode", "cw_max", "--out", str(out)]) == 0
        first = (out / "plan.json").read_bytes()
        assert main(["quantize", "--model", str(bundle / "model.json"), "--stats", str(profiled),
                     "--mode", "cw_max", "--out", str(out)]) == 0
        assert (out / "plan.json").read_bytes() == first

    def test_eval_reports_and_traces(self, bundle, profiled, tmp_path):
        q = tmp_path / "q"
        assert main(["quantize", "--model", str(bundle / "model.json"), "--stats", str(profiled),
                     "--mode", "cw_max", "--out", str(q)]) == 0
        args = ["eval", "--model", str(bundle / "model.json"),
                "--dataset", str(bundle / "data.qtsr"), "--labels", str(bundle / "labels.qtsr"),
                "--plan", str(q / "plan.json")]
        assert main(args + ["--out", str(tmp_path / "r1"),
                            "--trace-out", str(tmp_path / "tr1")]) == 0
        assert main(args + ["--out", str(tmp_path / "r2"),
                            "--trace-out", str(tmp_path / "tr2")]) == 0
        # byte-identical reports and integer traces
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
        assert (tmp_path / "r1.txt").read_bytes() == (tmp_path / "r2.txt").read_bytes()
        traces1 = sorted(Path(tmp_path / "tr1").iterdir())
        assert traces1
        for p1 in traces1:
            p2 = tmp_path / "tr2" / p1.name
            assert p1.read_bytes() == p2.read_bytes()
        doc = json.loads((tmp_path / "r1.json").read_text())
        assert doc["float_top1"] == 1.0  # labels come from the float teacher
        assert 0.0 <= doc["top1_agreement"] <= 1.0
        assert doc["quant_top1"] == doc["top1_agreement"]

    def test_only_an_eval_that_writes_traces_keeps_codes(self, bundle, profiled, tmp_path,
                                                          monkeypatch):
        # a batch's captured codes die with the batch, in compare and in an
        # eval without --trace-out; the eval report is the same either way
        from chanq import cli
        calls, alive = [], []  # per engine run: its codes; the codes of runs before the last

        def spy(*args, **kwargs):
            # the loop still holds the last run's result while it makes the next
            alive.append(sum(ref() is not None for refs in calls[:-1] for ref in refs))
            res = execute_quantized(*args, **kwargs)
            calls.append([weakref.ref(codes) for codes in res.captured.values()])
            return res
        execute_quantized = cli.execute_quantized
        monkeypatch.setattr(cli, "execute_quantized", spy)
        q = tmp_path / "q"
        assert main(["quantize", "--model", str(bundle / "model.json"), "--stats", str(profiled),
                     "--mode", "cw_max", "--out", str(q)]) == 0
        inputs = ["--model", str(bundle / "model.json"), "--dataset", str(bundle / "data.qtsr"),
                  "--batch", "16"]
        evaluate = ["eval", *inputs, "--plan", str(q / "plan.json")]
        runs = {"compare": ["compare", *inputs, "--out", str(tmp_path / "c")],
                "eval": evaluate + ["--out", str(tmp_path / "e")],
                "traced": evaluate + ["--out", str(tmp_path / "t"),
                                      "--trace-out", str(tmp_path / "tr")]}
        kept = {}
        for run, argv in runs.items():
            calls.clear(), alive.clear()
            assert main(argv) == 0
            assert len(calls) >= 4 and all(calls), run  # 60 samples: 4 batches, codes captured
            kept[run] = alive[-1]
        assert kept == {"compare": 0, "eval": 0, "traced": 2 * len(calls[0])}
        for suffix in (".json", ".txt"):
            assert (tmp_path / f"e{suffix}").read_bytes() == (tmp_path / f"t{suffix}").read_bytes()

    def test_a_dotted_report_prefix_keeps_its_dot(self, bundle, profiled, tmp_path):
        q = tmp_path / "q"
        assert main(["quantize", "--model", str(bundle / "model.json"), "--stats", str(profiled),
                     "--mode", "cw_max", "--out", str(q)]) == 0
        args = ["eval", "--model", str(bundle / "model.json"),
                "--dataset", str(bundle / "data.qtsr"), "--plan", str(q / "plan.json")]
        assert main(args + ["--out", str(tmp_path / "r.v2")]) == 0
        assert main(args + ["--out", str(tmp_path / "r")]) == 0
        assert sorted(p.name for p in tmp_path.glob("r*")) == ["r.json", "r.txt", "r.v2.json",
                                                               "r.v2.txt"]
        for suffix in (".json", ".txt"):
            assert (tmp_path / f"r.v2{suffix}").read_bytes() == (tmp_path / f"r{suffix}").read_bytes()

    def test_capture_of_unknown_tensor_is_data_error(self, bundle, profiled, tmp_path, capsys):
        q = tmp_path / "q"
        assert main(["quantize", "--model", str(bundle / "model.json"), "--stats", str(profiled),
                     "--mode", "cw_max", "--out", str(q)]) == 0
        capsys.readouterr()
        rc = main(["eval", "--model", str(bundle / "model.json"),
                   "--dataset", str(bundle / "data.qtsr"), "--plan", str(q / "plan.json"),
                   "--capture", "t1,bogus", "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and "'bogus'" in err and "Traceback" not in err


@pytest.mark.parametrize("command, flag, value", [
    ("sweep-profile-size", "--draws", "0"),
    ("sweep-profile-size", "--sizes", "8,0"),
    ("sweep-profile-size", "--sizes", "8,x"),
    ("profile", "--profile-samples", "-30"),
    ("compare", "--profile-samples", "0"),
    ("profile", "--batch", "0"),
    ("eval", "--batch", "-4"),
])
def test_non_positive_count_is_usage_error(tmp_path, capsys, command, flag, value):
    args = {"sweep-profile-size": ["--sizes", "8"], "eval": ["--plan", "p.json"]}.get(command, [])
    rc = main([command, "--model", "m.json", "--dataset", "d.qtsr", "--out", str(tmp_path / "o"),
               *args, flag, value])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert [ln for ln in lines if ln.startswith("error:")] == [
        f"error: argument {flag}: {value.split(',')[-1]!r} is not a positive integer"]
    assert not any("Traceback" in ln for ln in lines)


@pytest.mark.parametrize("command, value", [
    ("gen-synthetic", "-1"),
    ("profile", "-3"),
    ("compare", "-3"),
    ("sweep-profile-size", "1.5"),
])
def test_seed_that_is_not_a_non_negative_integer_is_usage_error(tmp_path, capsys, command, value):
    args = [] if command == "gen-synthetic" else ["--model", "m.json", "--dataset", "d.qtsr"]
    args += ["--sizes", "8"] if command == "sweep-profile-size" else []
    rc = main([command, *args, "--out", str(tmp_path / "o"), "--seed", value])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert lines[0].startswith(f"usage: chanq {command}")
    assert [ln for ln in lines if ln.startswith("error:")] == [
        f"error: argument --seed: {value!r} is not a non-negative integer"]
    assert not (tmp_path / "o").exists()


class TestQuantizedFiles:
    def test_16bit_quantize_then_eval_keeps_codes(self, bundle, profiled, tmp_path):
        from chanq.graph import load_model
        from chanq.planner import solve_plan
        from chanq.profiling import load_stats
        from chanq.qengine import execute_quantized, quantize_params

        q = tmp_path / "q16"
        assert main(["quantize", "--model", str(bundle / "model.json"), "--stats", str(profiled),
                     "--mode", "cw_max", "--bitwidth", "16", "--out", str(q)]) == 0
        assert main(["eval", "--model", str(bundle / "model.json"),
                     "--dataset", str(bundle / "data.qtsr"), "--plan", str(q / "plan.json"),
                     "--out", str(tmp_path / "r"), "--trace-out", str(tmp_path / "tr")]) == 0
        g = load_model(bundle / "model.json")
        qg = quantize_params(g, solve_plan(g, load_stats(profiled), "cw_max", bit_width=16))
        assert max(int(abs(k).max()) for k in qg.kernels.values()) > 127
        names = g.activation_names()
        ref = execute_quantized(qg, read_tensor(bundle / "data.qtsr"), capture=names)
        for name in names:
            np.testing.assert_array_equal(read_tensor(tmp_path / "tr" / f"{name}.qtsr"),
                                          ref.captured[name])

    @pytest.mark.parametrize("arch,channels", [("classifier", 4), ("hetero_conv", 6)])
    @pytest.mark.parametrize("with_blob", [True, False])
    def test_plan_for_another_model_is_data_error(self, bundle, tmp_path, capsys,
                                                  arch, channels, with_blob):
        other = tmp_path / "other"
        assert main(["gen-synthetic", "--arch", arch, "--in-channels", "4",
                     "--channels", str(channels), "--image-size", "8", "--samples", "24",
                     "--seed", "5", "--out", str(other)]) == 0
        assert main(["profile", "--model", str(other / "model.json"),
                     "--dataset", str(other / "data.qtsr"), "--out", str(other / "s.json")]) == 0
        assert main(["quantize", "--model", str(other / "model.json"),
                     "--stats", str(other / "s.json"), "--mode", "cw_max",
                     "--out", str(other / "q")]) == 0
        args = ["eval", "--model", str(bundle / "model.json"),
                "--dataset", str(bundle / "data.qtsr"), "--plan", str(other / "q" / "plan.json"),
                "--out", str(tmp_path / "r")]
        if not with_blob:  # no blob to read: the plan check refuses it first
            args += ["--qweights", str(tmp_path / "absent.bin")]
        capsys.readouterr()
        rc = main(args)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and "Traceback" not in err
        assert ("no layer entry" in err) if arch == "classifier" else ("channels" in err)

    def test_missing_qweights_is_data_error(self, bundle, profiled, tmp_path, capsys):
        # eval reads a plan's codes and never quantizes afresh
        q = tmp_path / "q"
        assert main(["quantize", "--model", str(bundle / "model.json"), "--stats", str(profiled),
                     "--mode", "cw_max", "--out", str(q)]) == 0
        absent = tmp_path / "absent.bin"
        capsys.readouterr()
        rc = main(["eval", "--model", str(bundle / "model.json"),
                   "--dataset", str(bundle / "data.qtsr"), "--plan", str(q / "plan.json"),
                   "--qweights", str(absent), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and str(absent) in err and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    def test_truncated_qweights_is_data_error(self, bundle, profiled, tmp_path, capsys):
        q = tmp_path / "q"
        assert main(["quantize", "--model", str(bundle / "model.json"), "--stats", str(profiled),
                     "--mode", "cw_max", "--out", str(q)]) == 0
        blob = (q / "qweights.bin").read_bytes()
        (q / "qweights.bin").write_bytes(blob[:-3])
        capsys.readouterr()
        rc = main(["eval", "--model", str(bundle / "model.json"),
                   "--dataset", str(bundle / "data.qtsr"), "--plan", str(q / "plan.json"),
                   "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and "byte blob" in err and "Traceback" not in err

    @pytest.mark.parametrize("part, offset, words", [
        ("kernel", -4, "node 'conv0' kernel: offset -4, len 144 and dims [4, 4, 3, 3] must be >= 0"),
        ("bias", True, "node 'conv0' bias offset must hold integers, got True"),
    ], ids=["kernel--4", "bias-True"])
    def test_bad_qparams_offset_is_data_error(self, bundle, profiled, tmp_path, capsys, part,
                                              offset, words):
        # a negative offset reached numpy's frombuffer; a boolean one was read as byte 1
        q = tmp_path / "q"
        assert main(["quantize", "--model", str(bundle / "model.json"), "--stats", str(profiled),
                     "--mode", "cw_max", "--out", str(q)]) == 0
        doc = json.loads((q / "plan.json").read_text())
        node = sorted(doc["qparams"])[0]
        doc["qparams"][node][part]["offset"] = offset
        (q / "plan.json").write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["eval", "--model", str(bundle / "model.json"),
                   "--dataset", str(bundle / "data.qtsr"), "--plan", str(q / "plan.json"),
                   "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and "Traceback" not in err
        assert words in err


class TestCompareAndSweep:
    def test_compare_table(self, bundle, tmp_path):
        out = tmp_path / "cmp"
        rc = main(["compare", "--model", str(bundle / "model.json"),
                   "--dataset", str(bundle / "data.qtsr"),
                   "--profile-samples", "24", "--seed", "1", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.with_suffix(".json").read_text())
        assert set(doc["top1_agreement"]) == {
            "layerwise_max", "cw_max", "cw_laplace", "cw_scauchy", "cw_pdf_aware"}
        assert "conv0" in doc["layers"]
        # internal consistency: layerwise column equals a dedicated run
        q = tmp_path / "qlw"
        s = tmp_path / "slw.json"
        assert main(["profile", "--model", str(bundle / "model.json"),
                     "--dataset", str(bundle / "data.qtsr"), "--profile-samples", "24",
                     "--seed", "1", "--out", str(s)]) == 0
        assert main(["quantize", "--model", str(bundle / "model.json"), "--stats", str(s),
                     "--mode", "layerwise_max", "--out", str(q)]) == 0
        assert main(["eval", "--model", str(bundle / "model.json"),
                     "--dataset", str(bundle / "data.qtsr"), "--plan", str(q / "plan.json"),
                     "--out", str(tmp_path / "rlw")]) == 0
        ev = json.loads((tmp_path / "rlw.json").read_text())
        assert ev["top1_agreement"] == doc["top1_agreement"]["layerwise_max"]

    def test_sweep_single_size(self, bundle, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["sweep-profile-size", "--model", str(bundle / "model.json"),
                   "--dataset", str(bundle / "data.qtsr"), "--sizes", "8",
                   "--draws", "3", "--seed", "2", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.with_suffix(".json").read_text())
        assert doc["sizes"] == [8]
        for mode in ("cw_max", "cw_laplace"):
            assert len(doc["modes"][mode]) == 1
            entry = doc["modes"][mode][0]
            assert 0.0 <= entry["fl_match_fraction"] <= 1.0

    def test_sweep_size_past_the_dataset(self, bundle, tmp_path, capsys):
        # 60 samples: a size of 500 would profile the whole dataset every draw
        rc = main(["sweep-profile-size", "--model", str(bundle / "model.json"),
                   "--dataset", str(bundle / "data.qtsr"), "--sizes", "8,500",
                   "--draws", "2", "--out", str(tmp_path / "sweep")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "error: --sizes 500 exceeds the dataset's 60 samples\n"
        assert not (tmp_path / "sweep.json").exists()

    def test_sweep_report_equals_one_evaluation_per_mode_and_size(self, bundle, tmp_path):
        # the sweep evaluates both modes of a size together; the oracle runs
        # one evaluation per (mode, size) and must give the same report bytes
        from chanq.cli import _activation_fls, _evaluate, _load_dataset, _profile_subset
        from chanq.graph import load_model
        from chanq.planner import solve_plan
        from chanq.profiling import collect_stats
        from chanq.qengine import quantize_params
        from chanq.reports import render_table, write_report

        sizes, draws, seed = [8, 20], 2, 3
        assert main(["sweep-profile-size", "--model", str(bundle / "model.json"),
                     "--dataset", str(bundle / "data.qtsr"), "--labels", str(bundle / "labels.qtsr"),
                     "--sizes", "8,20", "--draws", str(draws), "--seed", str(seed), "--batch", "16",
                     "--out", str(tmp_path / "sweep")]) == 0

        g = load_model(bundle / "model.json")
        data, labels = _load_dataset(bundle / "data.qtsr"), read_tensor(bundle / "labels.qtsr")
        batches = lambda x: [x[i:i + 16] for i in range(0, len(x), 16)]  # noqa: E731
        ref_stats = collect_stats(g, batches(data))
        rows, doc = [], {"sizes": sizes, "draws": draws, "modes": {"cw_max": [], "cw_laplace": []}}
        for size in sizes:
            draw_stats = [collect_stats(g, batches(_profile_subset(data, size, seed + 1000 * d)))
                          for d in range(draws)]
            for mode in ("cw_max", "cw_laplace"):
                ref_fls = _activation_fls(g, solve_plan(g, ref_stats, mode))
                plans = [solve_plan(g, st, mode) for st in draw_stats]
                fls = np.array([_activation_fls(g, plan) for plan in plans])
                match = float(np.mean(fls == ref_fls[None, :]))
                variance = float(np.mean(np.var(fls, axis=0)))
                res = _evaluate(g, {mode: quantize_params(g, plans[0])}, data, labels, set(), 16)
                agreement = res[mode]["top1_agreement"]
                rows.append([mode, size, match, variance, agreement])
                doc["modes"][mode].append({"size": size, "fl_match_fraction": match,
                                           "fl_variance": variance, "top1_agreement": agreement})
        text = render_table(
            ["mode", "profile_samples", "fl_match_fraction", "fl_variance", "top1_agreement"],
            rows, title=f"profiling-size sweep ({draws} draws per size)")
        write_report(tmp_path / "oracle", text, doc)
        for suffix in (".txt", ".json"):
            assert ((tmp_path / "sweep").with_suffix(suffix).read_bytes()
                    == (tmp_path / "oracle").with_suffix(suffix).read_bytes())


class TestNonFinite:
    def test_profile_on_overflowing_dataset_names_the_node(self, bundle, tmp_path, capsys):
        # profile exited 0 after RuntimeWarnings and wrote stats its own loader refused
        data = read_tensor(bundle / "data.qtsr")
        write_tensor(tmp_path / "big.qtsr", np.sign(data) * np.float32(3e38))
        rc = main(["profile", "--model", str(bundle / "model.json"),
                   "--dataset", str(tmp_path / "big.qtsr"), "--out", str(tmp_path / "s.json")])
        TestNumbersFailClosed._assert_one_line(capsys, rc, "node conv0: float32 overflow")
        assert not (tmp_path / "s.json").exists()

    def test_compare_on_inf_dataset_is_data_error(self, bundle, tmp_path, capsys):
        data = read_tensor(bundle / "data.qtsr")
        data.flat[0] = np.inf
        write_tensor(tmp_path / "inf.qtsr", data)
        rc = main(["compare", "--model", str(bundle / "model.json"),
                   "--dataset", str(tmp_path / "inf.qtsr"), "--out", str(tmp_path / "cmp")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and "non-finite" in err and "Traceback" not in err

    def test_quantize_on_nan_stats_is_data_error(self, bundle, profiled, tmp_path, capsys):
        doc = json.loads(profiled.read_text())
        for td in doc["tensors"].values():
            td["per_channel"]["max_abs"][0] = None  # stats files store NaN as null
            td["pooled"]["max_abs"][0] = None
        stats = tmp_path / "nan_stats.json"
        stats.write_text(json.dumps(doc))
        rc = main(["quantize", "--model", str(bundle / "model.json"), "--stats", str(stats),
                   "--mode", "cw_laplace", "--out", str(tmp_path / "q")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and "finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_profile_on_non_finite_weights_is_data_error(self, bundle, tmp_path, capsys, value):
        # the float engine ran on them and wrote NaN stats that quantize refused
        doc = json.loads((bundle / "model.json").read_text())
        ref = doc["nodes"][0]["params"]["weight"]
        blob = bytearray((bundle / "weights.bin").read_bytes())
        blob[ref["offset"] + 4:ref["offset"] + 8] = np.array(value, "<f4").tobytes()
        (tmp_path / "model.json").write_text(json.dumps(doc))
        (tmp_path / "weights.bin").write_bytes(bytes(blob))
        rc = main(["profile", "--model", str(tmp_path / "model.json"),
                   "--dataset", str(bundle / "data.qtsr"), "--out", str(tmp_path / "s.json")])
        TestNumbersFailClosed._assert_one_line(
            capsys, rc, f"node {doc['nodes'][0]['name']!r} weight: non-finite parameter values")


class TestMalformedDocuments:
    """A JSON document missing a key exits 2 with one line naming the key."""

    def _quantized(self, bundle, profiled, tmp_path):
        q = tmp_path / "q"
        assert main(["quantize", "--model", str(bundle / "model.json"), "--stats", str(profiled),
                     "--mode", "cw_max", "--out", str(q)]) == 0
        return q

    def _eval(self, bundle, q, tmp_path):
        return main(["eval", "--model", str(bundle / "model.json"),
                     "--dataset", str(bundle / "data.qtsr"), "--plan", str(q / "plan.json"),
                     "--out", str(tmp_path / "r")])

    def _quantize(self, bundle, stats, tmp_path):
        return main(["quantize", "--model", str(bundle / "model.json"), "--stats", str(stats),
                     "--mode", "cw_max", "--out", str(tmp_path / "q2")])

    @staticmethod
    def _assert_one_line(capsys, rc, key):
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"missing key {key!r}" in err

    def test_plan_of_version_only(self, bundle, profiled, tmp_path, capsys):
        q = self._quantized(bundle, profiled, tmp_path)
        (q / "plan.json").write_text(json.dumps({"version": 1}))
        capsys.readouterr()
        self._assert_one_line(capsys, self._eval(bundle, q, tmp_path), "mode")

    def test_qparams_kernel_without_offset(self, bundle, profiled, tmp_path, capsys):
        q = self._quantized(bundle, profiled, tmp_path)
        doc = json.loads((q / "plan.json").read_text())
        del doc["qparams"]["conv0"]["kernel"]["offset"]
        (q / "plan.json").write_text(json.dumps(doc))
        capsys.readouterr()
        self._assert_one_line(capsys, self._eval(bundle, q, tmp_path), "offset")

    def test_stats_of_version_only(self, bundle, tmp_path, capsys):
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps({"version": 1}))
        self._assert_one_line(capsys, self._quantize(bundle, stats, tmp_path), "tensors")

    def test_stats_channel_record_without_mean(self, bundle, profiled, tmp_path, capsys):
        doc = json.loads(profiled.read_text())
        del doc["tensors"]["t1"]["per_channel"]["mean"]
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps(doc))
        self._assert_one_line(capsys, self._quantize(bundle, stats, tmp_path), "mean")

    @pytest.mark.parametrize("text", ['{"version": 1, ', "[" * 100000], ids=["cut", "deep"])
    @pytest.mark.parametrize("name", ["model.json", "stats.json", "plan.json"])
    def test_unparsable_document_names_its_file(self, bundle, profiled, tmp_path, capsys, name,
                                                text):
        # a stats or plan file that did not parse exited with the parser's message alone,
        # and arrays nested too deep for the parser with a RecursionError's traceback
        q = self._quantized(bundle, profiled, tmp_path)
        paths = {"model.json": tmp_path / "model.json", "stats.json": tmp_path / "stats.json",
                 "plan.json": q / "plan.json"}
        (tmp_path / "model.json").write_text((bundle / "model.json").read_text())
        (tmp_path / "weights.bin").write_bytes((bundle / "weights.bin").read_bytes())
        (tmp_path / "stats.json").write_text(profiled.read_text())
        paths[name].write_text(text)
        model = ["--model", str(tmp_path / "model.json")]
        capsys.readouterr()
        rc = (self._eval(bundle, q, tmp_path) if name == "plan.json" else
              main(["quantize", *model, "--stats", str(tmp_path / "stats.json"),
                    "--mode", "cw_max", "--out", str(tmp_path / "q2")]))
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"error: cannot parse {paths[name]}: ")

    @pytest.mark.parametrize("key", ["nodes", "offset"])
    def test_manifest_without_key(self, bundle, tmp_path, capsys, key):
        doc = json.loads((bundle / "model.json").read_text())
        if key == "nodes":
            del doc["nodes"]
        else:
            del doc["nodes"][0]["params"]["weight"]["offset"]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        (tmp_path / "weights.bin").write_bytes((bundle / "weights.bin").read_bytes())
        rc = main(["profile", "--model", str(model), "--dataset", str(bundle / "data.qtsr"),
                   "--out", str(tmp_path / "s.json")])
        self._assert_one_line(capsys, rc, key)


class TestManifestFailsClosed:
    """A manifest with a wrongly shaped value exits 2 with one line, whichever
    command loads it."""

    @staticmethod
    def _model(bundle, tmp_path, mutate):
        doc = json.loads((bundle / "model.json").read_text())
        mutate(doc)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        (tmp_path / "weights.bin").write_bytes((bundle / "weights.bin").read_bytes())
        return str(model)

    @staticmethod
    def _assert_one_line(capsys, rc, words):
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and "Traceback" not in err
        assert words in err

    def _profile(self, model, bundle, tmp_path):
        return main(["profile", "--model", model, "--dataset", str(bundle / "data.qtsr"),
                     "--out", str(tmp_path / "s.json")])

    def test_node_without_inputs(self, bundle, tmp_path, capsys):
        model = self._model(bundle, tmp_path, lambda doc: doc["nodes"][0].update(inputs=[]))
        self._assert_one_line(capsys, self._profile(model, bundle, tmp_path),
                              "conv takes 1 input(s), got 0")

    def test_stride_with_null(self, bundle, tmp_path, capsys):
        model = self._model(bundle, tmp_path,
                            lambda doc: doc["nodes"][0]["attrs"].update(stride=[1, None]))
        self._assert_one_line(capsys, self._profile(model, bundle, tmp_path),
                              "attribute 'stride' must be an integer >= 1")

    def test_node_name_as_list(self, bundle, profiled, tmp_path, capsys):
        q = tmp_path / "q"
        assert main(["quantize", "--model", str(bundle / "model.json"), "--stats", str(profiled),
                     "--mode", "cw_max", "--out", str(q)]) == 0
        capsys.readouterr()
        model = self._model(bundle, tmp_path, lambda doc: doc["nodes"][1].update(name=["relu1"]))
        rc = main(["quantize", "--model", model, "--stats", str(profiled), "--mode", "cw_max",
                   "--out", str(tmp_path / "q2")])
        self._assert_one_line(capsys, rc, "names must be strings")
        rc = main(["eval", "--model", model, "--dataset", str(bundle / "data.qtsr"),
                   "--plan", str(q / "plan.json"), "--out", str(tmp_path / "r")])
        self._assert_one_line(capsys, rc, "names must be strings")

    # "outputs": "t1" loaded as ["t1"] and attrs as a list of pairs as an object,
    # both with exit 0; "inputs": "input" was refused as "conv takes 1 input(s), got 5"
    @pytest.mark.parametrize("key, words", [
        ("inputs", "nodes[0]: malformed value (inputs must be a flat list, got 'input')"),
        ("outputs", "nodes[0]: malformed value (outputs must be a flat list, got 't1')"),
        ("attrs", "nodes[0]: malformed value (attrs must be an object, got a list of length 2)"),
    ])
    def test_list_or_object_field(self, bundle, tmp_path, capsys, key, words):
        def mutate(doc):
            node = doc["nodes"][0]
            node[key] = node[key][0] if key != "attrs" else [list(kv) for kv in node[key].items()]
        model = self._model(bundle, tmp_path, mutate)
        self._assert_one_line(capsys, self._profile(model, bundle, tmp_path), words)

    # the bundle's conv0 kernel is [4, 4, 3, 3], its fc4 weights [10, 144] and its
    # input [1, 4, 8, 8]; each case exited 2 with a line that named no node
    @pytest.mark.parametrize("mutate, words", [
        (lambda doc: doc["nodes"][0]["params"]["weight"].update(dims=[4, 4, 9]),
         "node conv0: conv kernel (4, 4, 9) does not fit 4 input channels; "
         "expected [Co, 4, Kh, Kw]"),
        (lambda doc: doc["nodes"][4]["params"]["weight"].update(dims=[1440]),
         "node fc4: fc weights (1440,) do not fit the 144 inputs the tensor flattens to"),
        (lambda doc: doc["input"].update(dims=[4, 8, 8]),
         "input dims must be [N, D] or [N, C, H, W], positive integers, got [4, 8, 8]"),
        (lambda doc: doc["input"].update(dims=[1, 4, 8, 8, 1]),
         "input dims must be [N, D] or [N, C, H, W], positive integers, got [1, 4, 8, 8, 1]"),
        (lambda doc: doc["input"].update(dims=[1, 4, 2, 2]),
         "node conv2: empty output: input 2x2, window 3x3, stride 1,1, pad 0,0"),
        (lambda doc: doc["nodes"].append({"name": "pool5", "kind": "maxpool", "inputs": ["t5"],
                                          "outputs": ["t6"], "attrs": {"window": 2}}),
         "node pool5: maxpool needs a 4-D [N, C, H, W] input, got (1, 10)"),
    ], ids=["conv_kernel_3d", "fc_weight_1d", "input_3_dims", "input_5_dims",
            "empty_conv_output", "maxpool_after_fc"])
    def test_wrong_rank_names_its_node(self, bundle, tmp_path, capsys, mutate, words):
        model = self._model(bundle, tmp_path, mutate)
        self._assert_one_line(capsys, self._profile(model, bundle, tmp_path), words)


class TestLabelsFailClosed:
    """A labels file must hold one whole number per dataset sample (60 here)."""

    @staticmethod
    def _labels(bundle, tmp_path, case):
        labels = read_tensor(bundle / "labels.qtsr")
        path = tmp_path / "labels.qtsr"
        write_tensor(path, {"twice": np.concatenate([labels, labels]),
                            "fraction": labels.astype(np.float32) + 0.5,
                            "short": labels[:-1]}[case])
        return path

    @pytest.mark.parametrize("case, words", [
        ("twice", "expected 60 whole-number labels, one per sample; got 120"),
        ("fraction", "expected 60 whole-number labels, one per sample; got 60 float32"),
        ("short", "expected 60 whole-number labels, one per sample; got 59"),
    ], ids=["twice", "fraction", "short"])
    def test_eval(self, bundle, profiled, tmp_path, capsys, case, words):
        q = tmp_path / "q"
        assert main(["quantize", "--model", str(bundle / "model.json"), "--stats", str(profiled),
                     "--mode", "cw_max", "--out", str(q)]) == 0
        capsys.readouterr()
        rc = main(["eval", "--model", str(bundle / "model.json"),
                   "--dataset", str(bundle / "data.qtsr"),
                   "--labels", str(self._labels(bundle, tmp_path, case)),
                   "--plan", str(q / "plan.json"), "--out", str(tmp_path / "r")])
        TestNumbersFailClosed._assert_one_line(capsys, rc, words)

    @pytest.mark.parametrize("command", [["compare"], ["sweep-profile-size", "--sizes", "8"]])
    def test_compare_and_sweep(self, bundle, tmp_path, capsys, command):
        rc = main([command[0], "--model", str(bundle / "model.json"),
                   "--dataset", str(bundle / "data.qtsr"), *command[1:],
                   "--labels", str(self._labels(bundle, tmp_path, "short")),
                   "--out", str(tmp_path / "r")])
        TestNumbersFailClosed._assert_one_line(capsys, rc, "got 59")


class TestNumbersFailClosed:
    """A plan, manifest or stats number that no writer could have produced
    exits 2 with one line, where it was once truncated or used as given."""

    @staticmethod
    def _assert_one_line(capsys, rc, words):
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert words in err

    @pytest.mark.parametrize("field, value, words", [
        ("fl", 4.7, "fl must hold integers, got 4.7"),
        ("fl", True, "fl must hold integers, got True"),
        ("fl", 40, "fl 40 outside [-31, 31]"),
        ("shift", -2000, "shift -2000 outside [-93, 93]"),
        ("comp_shift", -1, "comp_shift -1 outside [0, inf]"),
        ("bias_fl", 0.5, "bias_fl must hold integers, got 0.5"),
        ("signed", 1, "signed must hold booleans, got 1"),
        ("bit_width", 8.0, "bit_width must hold integers, got 8.0"),
        ("bit_width", 64, "plan bit width 64 outside [2, 16]"),
        ("bit_width", 24, "plan bit width 24 outside [2, 16]"),
    ])
    def test_plan_number(self, bundle, profiled, tmp_path, capsys, field, value, words):
        q = tmp_path / "q"
        assert main(["quantize", "--model", str(bundle / "model.json"), "--stats", str(profiled),
                     "--mode", "cw_max", "--out", str(q)]) == 0
        doc = json.loads((q / "plan.json").read_text())
        if field == "bit_width":
            doc["bit_width"] = value
        elif field in ("fl", "signed"):
            doc["tensors"]["input"][field][0] = value
        else:
            doc["layers"]["conv0"][field][0] = (value if field in ("shift", "bias_fl")
                                                else [value] * len(doc["layers"]["conv0"][field][0]))
        (q / "plan.json").write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["eval", "--model", str(bundle / "model.json"),
                   "--dataset", str(bundle / "data.qtsr"), "--plan", str(q / "plan.json"),
                   "--out", str(tmp_path / "r")])
        self._assert_one_line(capsys, rc, words)

    def test_quantize_bitwidth_17(self, bundle, profiled, tmp_path, capsys):
        rc = main(["quantize", "--model", str(bundle / "model.json"), "--stats", str(profiled),
                   "--mode", "cw_max", "--bitwidth", "17", "--out", str(tmp_path / "q")])
        self._assert_one_line(capsys, rc, "bit width 17 outside [2, 16]")

    def test_kernel_code_outside_the_bit_width(self, bundle, profiled, tmp_path, capsys):
        # a 12-bit plan stores kernels as int16, which holds codes past [-2048, 2047]
        q = tmp_path / "q"
        assert main(["quantize", "--model", str(bundle / "model.json"), "--stats", str(profiled),
                     "--mode", "cw_max", "--bitwidth", "12", "--out", str(q)]) == 0
        offset = json.loads((q / "plan.json").read_text())["qparams"]["conv0"]["kernel"]["offset"]
        blob = bytearray((q / "qweights.bin").read_bytes())
        blob[offset:offset + 2] = np.array(30000, "<i2").tobytes()
        (q / "qweights.bin").write_bytes(bytes(blob))
        capsys.readouterr()
        rc = main(["eval", "--model", str(bundle / "model.json"),
                   "--dataset", str(bundle / "data.qtsr"), "--plan", str(q / "plan.json"),
                   "--out", str(tmp_path / "r")])
        self._assert_one_line(capsys, rc, "node 'conv0': kernel 30000 outside [-2048, 2047]")

    def test_layer_too_wide_for_16_bits(self, tmp_path, capsys):
        # fan-in 4,194,368: a 16-bit sum of its products can pass 2**53
        from chanq.graph import Graph, LayerSpec, save_model, validate

        dims = (1, 1, 64, 65537)
        fc = LayerSpec("fc0", "fc", ["x"], ["y"], params={"weight": "w", "bias": "b"})
        g = validate(Graph("x", dims, [fc], {"w": np.full((2, 64 * 65537), 0.5, np.float32),
                                             "b": np.zeros(2, np.float32)}))
        save_model(g, tmp_path / "model.json", tmp_path / "weights.bin")
        write_tensor(tmp_path / "data.qtsr", np.ones(dims, np.float32))
        model = ["--model", str(tmp_path / "model.json")]
        assert main(["profile", *model, "--dataset", str(tmp_path / "data.qtsr"),
                     "--out", str(tmp_path / "s.json")]) == 0
        capsys.readouterr()
        rc = main(["quantize", *model, "--stats", str(tmp_path / "s.json"), "--mode", "cw_max",
                   "--bitwidth", "16", "--out", str(tmp_path / "q")])
        self._assert_one_line(capsys, rc, "plan layer 'fc0': fan-in 4194368 exceeds 4194367")

    def _eval_edited_plan(self, model_dir, tmp_path, capsys, edit):
        """Profile and quantize the model in cw_max, apply ``edit`` to the
        plan document, and evaluate it; returns the exit code."""
        model, data = str(model_dir / "model.json"), str(model_dir / "data.qtsr")
        q = tmp_path / "q"
        assert main(["profile", "--model", model, "--dataset", data,
                     "--out", str(tmp_path / "s.json")]) == 0
        assert main(["quantize", "--model", model, "--stats", str(tmp_path / "s.json"),
                     "--mode", "cw_max", "--out", str(q)]) == 0
        doc = json.loads((q / "plan.json").read_text())
        edit(doc["layers"])
        (q / "plan.json").write_text(json.dumps(doc))
        capsys.readouterr()
        return main(["eval", "--model", model, "--dataset", data, "--plan", str(q / "plan.json"),
                     "--out", str(tmp_path / "r")])

    def test_depthwise_comp_shift(self, tmp_path, capsys):
        # the depthwise engine has no compensation path, so a shift there went unused
        m = tmp_path / "m"
        assert main(["gen-synthetic", "--arch", "depthwise", "--in-channels", "4",
                     "--channels", "4", "--image-size", "8", "--samples", "24", "--seed", "5",
                     "--out", str(m)]) == 0

        def edit(layers):
            layers["dwconv2"]["comp_shift"][0] = [3]
        rc = self._eval_edited_plan(m, tmp_path, capsys, edit)
        self._assert_one_line(capsys, rc, "plan layer 'dwconv2': comp_shift 3 outside [0, 0]")

    def test_fc_without_input_groups(self, bundle, tmp_path, capsys):
        # empty group rows pass the shape check (fc may have any group count)
        def edit(layers):
            for key in ("ker_fl", "comp_shift"):
                layers["fc4"][key] = [[] for _ in layers["fc4"][key]]
        rc = self._eval_edited_plan(bundle, tmp_path, capsys, edit)
        self._assert_one_line(capsys, rc, "fc input groups are not 0 contiguous blocks")

    def _profile_edited_entry(self, bundle, tmp_path, capsys, key, value, words):
        """Set ``key`` of the first node's weight entry in the manifest to
        ``value`` and profile; asserts the one line holds ``words``."""
        doc = json.loads((bundle / "model.json").read_text())
        ref = doc["nodes"][0]["params"]["weight"]
        ref[key] = value
        (tmp_path / "model.json").write_text(json.dumps(doc))
        (tmp_path / "weights.bin").write_bytes((bundle / "weights.bin").read_bytes())
        rc = main(["profile", "--model", str(tmp_path / "model.json"),
                   "--dataset", str(bundle / "data.qtsr"), "--out", str(tmp_path / "s.json")])
        self._assert_one_line(capsys, rc, words)

    # the conv0 weight entry of the bundle is {"offset": 16, "len": 576, "dims": [4, 4, 3, 3]}
    @pytest.mark.parametrize("key, value, words", [
        ("offset", 4.5, "nodes[0]: malformed value (node 'conv0' weight offset must hold "
                        "integers, got 4.5)"),
        ("len", True, "nodes[0]: malformed value (node 'conv0' weight len must hold integers, "
                      "got True)"),
        ("dims", [2.0, 4, 3, 3], "nodes[0]: malformed value (node 'conv0' weight dims must hold "
                                 "integers, got 2.0)"),
    ], ids=["offset-4.5", "len-True", "dims-value2"])
    def test_manifest_number(self, bundle, tmp_path, capsys, key, value, words):
        self._profile_edited_entry(bundle, tmp_path, capsys, key, value, words)

    @pytest.mark.parametrize("key, words", [
        ("offset", "node 'conv0' weight: offset -4, len 576 and dims [4, 4, 3, 3] must be >= 0"),
        ("len", "node 'conv0' weight: offset 16, len -4 and dims [4, 4, 3, 3] must be >= 0"),
    ], ids=["offset", "len"])
    def test_manifest_negative_offset_or_len(self, bundle, tmp_path, capsys, key, words):
        # a negative offset reached numpy's frombuffer, whose message names no node
        self._profile_edited_entry(bundle, tmp_path, capsys, key, -4, words)

    def test_manifest_negative_dims(self, bundle, tmp_path, capsys):
        # [-1, -n] has the element count n and passed the length check; numpy's
        # reshape then said "can only specify one unknown dimension"
        self._profile_edited_entry(bundle, tmp_path, capsys, "dims", [-1, -144],
                                   "node 'conv0' weight: offset 16, len 576 and dims [-1, -144] "
                                   "must be >= 0")

    @pytest.mark.parametrize("field, words", [
        ("count", "count must hold whole numbers"),
        ("count_fraction", "count must hold whole numbers"),
        # a traceback and exit 1: the OverflowError of float(10**400) was not caught;
        # then Python's "int too large to convert to float"
        pytest.param("count_10e400", f"stats of tensor 't1': malformed value (count holds "
                     f"1{'0' * 400}, past float64)", id="count_10e400-past float64"),
        ("m2", "m2 must be >= 0"),
        ("minv", "minv exceeds maxv"),
        # strings and booleans were read through float() and quantized with exit 0
        ("mean_string", "stats of tensor 't1': malformed value (mean must hold numbers or null, "
                        "got '0.12')"),
        ("m2_true", "stats of tensor 't1': malformed value (m2 must hold numbers or null, "
                    "got True)"),
    ])
    def test_stats_record(self, bundle, profiled, tmp_path, capsys, field, words):
        import warnings

        doc = json.loads(profiled.read_text())
        rec = doc["tensors"]["t1"]["per_channel"]
        if field == "count":
            rec["count"] = [None] * len(rec["count"])  # NaN, as a stats file stores it
        elif field == "count_fraction":
            rec["count"][0] += 0.5
        elif field == "count_10e400":
            rec["count"][0] = 10**400
        elif field == "mean_string":
            rec["mean"] = ["0.12"] * len(rec["mean"])
        elif field == "m2_true":
            rec["m2"][0] = True
        elif field == "m2":
            rec["m2"][0] = -5.0
        else:
            rec["minv"][0] = rec["maxv"][0] + 1.0
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way to the message
            rc = main(["quantize", "--model", str(bundle / "model.json"), "--stats", str(stats),
                       "--mode", "cw_max", "--out", str(tmp_path / "q")])
        self._assert_one_line(capsys, rc, words)


    # a short per-channel field ended cw_laplace in an IndexError (exit 3) and
    # passed cw_max; a pooled record of two channels passed both
    @pytest.mark.parametrize("mode", ["cw_max", "cw_laplace"])
    @pytest.mark.parametrize("field, words", [
        ("mean", "stats of tensor 't1': malformed value (mean holds 3 values, count 4)"),
        ("nu4", "stats of tensor 't1': malformed value (nu4 holds 5 values, count 4)"),
        ("pooled", "stats of tensor 't1': malformed value (pooled count holds 2 values, not 1)"),
    ])
    def test_stats_field_lengths(self, bundle, profiled, tmp_path, capsys, mode, field, words):
        doc = json.loads(profiled.read_text())
        t1 = doc["tensors"]["t1"]
        if field == "mean":
            t1["per_channel"]["mean"].pop()
        elif field == "nu4":
            t1["per_channel"]["nu4"].append(1.0)
        else:
            t1["pooled"] = {key: values * 2 for key, values in t1["pooled"].items()}
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps(doc))
        rc = main(["quantize", "--model", str(bundle / "model.json"), "--stats", str(stats),
                   "--mode", mode, "--out", str(tmp_path / "q")])
        self._assert_one_line(capsys, rc, words)


class TestWrongTypesNameTheField:
    """A JSON object, list or string of the wrong type, or an integer past
    int64 or float64, exits 2 with one line naming the field and its node,
    tensor or layer. Each case but ``stats_kind`` exited 2 before, in
    Python's words or quoting a list the file does not hold."""

    @staticmethod
    def _edit(path, at, value):
        """Set the field at the key path ``at`` of the JSON file ``path`` (the
        whole document for ``()``) to ``value``, or to ``value(old)``."""
        doc = {"": json.loads(path.read_text())}
        at = ("",) + at
        parent = doc
        for key in at[:-1]:
            parent = parent[key]
        parent[at[-1]] = value(parent[at[-1]]) if callable(value) else value
        path.write_text(json.dumps(doc[""]))

    @pytest.mark.parametrize("name, at, value, words", [
        # input dims must be [N, D] or [N, C, H, W], ..., got ['1', '2', '6', '6']
        ("model.json", ("input", "dims"), "1266",
         "model.json: malformed value (input dims must be a flat list, got '1266')"),
        # nodes[0]: malformed value ('list' object has no attribute 'items')
        ("model.json", ("nodes", 0, "params"), lambda old: [list(kv) for kv in old.items()],
         "nodes[0]: malformed value (params must be an object, got a list of length 2)"),
        # 'list' object has no attribute 'get'
        ("model.json", ("nodes", 0), lambda old: [old["name"], old["kind"]],
         "model.json: nodes[0]: malformed value (node must be an object, got a list of length 2)"),
        # nodes must hold objects, got 'conv0' (naming no node)
        ("model.json", ("nodes", 0), lambda old: old["name"],
         "model.json: nodes[0]: malformed value (node must be an object, got 'conv0')"),
        ("model.json", ("nodes",), lambda old: dict(enumerate(old)),
         "model.json: malformed value (nodes must be a list, got an object of length 5)"),
        # list indices must be integers or slices, not str
        ("model.json", ("input",), [], "model.json: malformed value (input must be an object, "
                                       "got a list of length 0)"),
        # unsupported operand type(s) for /: 'PosixPath' and 'int'
        ("model.json", ("weights",), 5,
         "model.json: malformed value (weights must hold strings, got 5)"),
        # 'list' object has no attribute 'get'
        ("model.json", (), lambda old: [old],
         "model.json: document must be an object, got a list of length 1\n"),
        # list indices must be integers or slices, not str
        ("plan.json", ("qparams", "conv0"), lambda old: [old["kernel"], old["bias"]],
         "quantized parameters of node 'conv0': malformed value (entry must be an object, "
         "got a list of length 2)"),
        # Python int too large to convert to C long
        ("plan.json", ("tensors", "input", "fl", 0), 10**20,
         "plan tensor 'input': malformed value (fl holds 100000000000000000000, past int64)"),
        # int too large to convert to float
        ("stats.json", ("tensors", "t1", "per_channel", "m2", 0), 10**400,
         f"stats of tensor 't1': malformed value (m2 holds 1{'0' * 400}, past float64)"),
        # exit 0: the kind was never read
        ("stats.json", ("tensors",),
         lambda old: {t: {**rec, "kind": [1, {"x": None}]} for t, rec in old.items()},
         "malformed value (kind must be activation or parameter, got [1, {'x': None}])"),
    ], ids=["input_dims_string", "params_pairs", "node_list", "node_string", "nodes_object",
            "input_list", "weights_int",
            "manifest_list", "qparams_entry_list", "fl_10e20", "m2_10e400", "stats_kind"])
    def test_refused(self, bundle, profiled, tmp_path, capsys, name, at, value, words):
        q = tmp_path / "q"
        assert main(["quantize", "--model", str(bundle / "model.json"), "--stats", str(profiled),
                     "--mode", "cw_max", "--out", str(q)]) == 0
        for f in ("model.json", "weights.bin"):
            (tmp_path / f).write_bytes((bundle / f).read_bytes())
        (tmp_path / "stats.json").write_text(profiled.read_text())
        self._edit(q / name if name == "plan.json" else tmp_path / name, at, value)
        capsys.readouterr()
        model = ["--model", str(tmp_path / "model.json")]  # the manifest names its blob
        rc = main({
            "model.json": ["profile", *model, "--dataset", str(bundle / "data.qtsr"),
                           "--out", str(tmp_path / "s.json")],
            "stats.json": ["quantize", *model, "--stats", str(tmp_path / "stats.json"),
                           "--mode", "cw_pdf_aware", "--out", str(tmp_path / "q2")],
            "plan.json": ["eval", *model, "--dataset", str(bundle / "data.qtsr"),
                          "--plan", str(q / "plan.json"), "--out", str(tmp_path / "r")],
        }[name])
        TestNumbersFailClosed._assert_one_line(capsys, rc, words)

    def test_a_refusal_quotes_a_list_by_its_length(self, tmp_path, capsys):
        # a residual C=4 manifest wrapped in a list was refused in one
        # 1,149-character line that quoted the whole manifest
        assert main(["gen-synthetic", "--arch", "residual", "--channels", "4", "--samples", "8",
                     "--out", str(tmp_path)]) == 0
        self._edit(tmp_path / "model.json", (), lambda old: [old])
        capsys.readouterr()
        rc = main(["profile", "--model", str(tmp_path / "model.json"),
                   "--dataset", str(tmp_path / "data.qtsr"), "--out", str(tmp_path / "s.json")])
        err = capsys.readouterr().err
        assert rc == 2 and err.count("\n") == 1 and len(err) < 200
        assert err.endswith("model.json: document must be an object, got a list of length 1\n")


class TestBatchnormFailsClosed:
    """An epsilon that is not a finite number, or a var at or below -epsilon,
    exits 2 with one line naming the batchnorm, whichever command loads it."""

    # [1] and {} raised a TypeError traceback (exit 1), "abc" a line naming no
    # node, "1e-3" was read as a number, and -5 or a negative var wrote NaN stats
    @pytest.mark.parametrize("command", ["profile", "quantize", "eval"])
    @pytest.mark.parametrize("epsilon, var, words", [
        ([1], None, "node bn: epsilon must be a finite number, got [1]"),
        ({}, None, "node bn: epsilon must be a finite number, got {}"),
        ("abc", None, "node bn: epsilon must be a finite number, got 'abc'"),
        ("1e-3", None, "node bn: epsilon must be a finite number, got '1e-3'"),
        (True, None, "node bn: epsilon must be a finite number, got True"),
        (1e39, None, "node bn: epsilon must be a finite number, got 1e+39"),
        (-5, None, "node bn: gamma / sqrt(var + epsilon) is not finite in channel 0"),
        (1e-3, -0.5, "node bn: gamma / sqrt(var + epsilon) is not finite in channel 1 "
                     "(var -0.5, epsilon 0.001)"),
        (0, 0.0, "node bn: gamma / sqrt(var + epsilon) is not finite in channel 1"),
    ], ids=["list", "object", "text", "numeric_text", "bool", "past_float32", "negative",
            "var_below_minus_epsilon", "zero_var"])
    def test_refused_naming_the_node(self, bn_bundle, tmp_path, capsys, command, epsilon, var,
                                     words):
        doc = json.loads((bn_bundle / "model.json").read_text())
        bn = next(node for node in doc["nodes"] if node["kind"] == "batchnorm")
        bn["attrs"]["epsilon"] = epsilon
        blob = bytearray((bn_bundle / "weights.bin").read_bytes())
        if var is not None:
            at = bn["params"]["var"]["offset"] + 4  # channel 1
            blob[at:at + 4] = np.array(var, "<f4").tobytes()
        (tmp_path / "model.json").write_text(json.dumps(doc))
        (tmp_path / "weights.bin").write_bytes(bytes(blob))
        model = ["--model", str(tmp_path / "model.json")]
        data = ["--dataset", str(bn_bundle / "data.qtsr")]
        rc = main({
            "profile": ["profile", *model, *data, "--out", str(tmp_path / "s.json")],
            "quantize": ["quantize", *model, "--stats", str(bn_bundle / "stats.json"),
                         "--mode", "cw_max", "--out", str(tmp_path / "q")],
            "eval": ["eval", *model, *data, "--plan", str(bn_bundle / "plan.json"),
                     "--out", str(tmp_path / "r")],
        }[command])
        TestNumbersFailClosed._assert_one_line(capsys, rc, words)


class TestFeatureMapOutput:
    """A model whose output is a feature map (the bundle without fc4: relu3's
    [N, 4, 6, 6]) reports agreement as a fraction of its N*6*6 argmax
    positions; it summed them and divided by N, reporting about 35."""

    @pytest.fixture
    def fmap_model(self, bundle, tmp_path):
        doc = json.loads((bundle / "model.json").read_text())
        doc["nodes"] = [n for n in doc["nodes"] if n["kind"] != "fc"]
        doc["weights"] = str(bundle / "weights.bin")
        (tmp_path / "fmap.json").write_text(json.dumps(doc))
        return str(tmp_path / "fmap.json")

    def test_compare_and_eval_agreement_is_a_fraction(self, bundle, fmap_model, tmp_path):
        data = ["--dataset", str(bundle / "data.qtsr")]
        assert main(["compare", "--model", fmap_model, *data, "--out", str(tmp_path / "c")]) == 0
        agreement = json.loads((tmp_path / "c.json").read_text())["top1_agreement"]
        assert all(0.5 < v <= 1.0 for v in agreement.values()), agreement
        assert main(["profile", "--model", fmap_model, *data,
                     "--out", str(tmp_path / "s.json")]) == 0
        assert main(["quantize", "--model", fmap_model, "--stats", str(tmp_path / "s.json"),
                     "--mode", "cw_max", "--out", str(tmp_path / "q")]) == 0
        assert main(["eval", "--model", fmap_model, *data, "--plan",
                     str(tmp_path / "q" / "plan.json"), "--out", str(tmp_path / "e")]) == 0
        report = json.loads((tmp_path / "e.json").read_text())
        assert report["top1_agreement"] == agreement["cw_max"]

    @pytest.mark.parametrize("command", ["compare", "eval", "sweep-profile-size"])
    def test_labels_refused_naming_the_output(self, bundle, fmap_model, tmp_path, capsys,
                                              command):
        # eval failed with numpy's "operands could not be broadcast together"
        extra = {"eval": ["--plan", str(tmp_path / "none.json")],
                 "sweep-profile-size": ["--sizes", "8"]}.get(command, [])
        rc = main([command, "--model", fmap_model, "--dataset", str(bundle / "data.qtsr"),
                   "--labels", str(bundle / "labels.qtsr"), *extra, "--out", str(tmp_path / "r")])
        TestNumbersFailClosed._assert_one_line(
            capsys, rc, "--labels needs [N, K] class scores, but output tensor 't4' has shape "
                        "[1, 4, 6, 6]")


def test_unexpected_error_is_one_line_and_exit_3(bundle, tmp_path, capsys, monkeypatch):
    # it printed a traceback and exited 1, the usage code
    from chanq import cli

    def broken(*args, **kwargs):
        raise TypeError("unsupported operand type(s) for +: 'float' and 'list'")

    monkeypatch.setattr(cli, "load_model", broken)
    rc = main(["profile", "--model", str(bundle / "model.json"),
               "--dataset", str(bundle / "data.qtsr"), "--out", str(tmp_path / "s.json")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == ("internal error: TypeError(\"unsupported operand type(s) for +: 'float' "
                   "and 'list'\")\n")


def test_runtime_loads_no_scipy():
    # the package and its CLI run on numpy alone; scipy is a test dependency
    import chanq

    script = (
        "import importlib, pkgutil, sys\n"
        "import chanq, chanq.cli\n"
        "for m in pkgutil.iter_modules(chanq.__path__):\n"
        "    importlib.import_module('chanq.' + m.name)\n"
        "assert chanq.cli.main(['--help']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(chanq.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip().splitlines()[-1] == "[]"
