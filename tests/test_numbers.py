"""One rule per kind of number: every integer input goes through
``spike_model._integer`` and every real one through ``spike_model._real``,
so a bool, a string or a value out of range is refused with a ValueError
that names the input, and a numpy number is stored as a Python one."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from spikescore.asymptotics import (
    comparable_sample_scores,
    ratio_decomposition,
    score_ratio_table,
)
from spikescore.limit_dist import RLaw, r_quantile
from spikescore.pca_engine import dual_pca
from spikescore.runner import (
    MODE_HDLSS,
    ExperimentConfig,
    SpikeTemplate,
    config_to_dict,
    export_scores_scatter,
    parse_config,
    run_hdlss_sweep,
)
from spikescore.spike_model import SpikeProfile, SpikeSpec, generate_sample

SPIKE = SpikeProfile.power(1.0, 1.6)
X = np.random.default_rng(5).standard_normal((8, 5))


def config(out, template=None, **fields):
    """The tiny hdlss sweep: n = 6, d = 200, 3 replicates."""
    return ExperimentConfig(
        mode=MODE_HDLSS, template=template or SpikeTemplate(spikes=(SPIKE,), n=6),
        grid=(200,), replicates=3, master_seed=314, output_dir=str(out), **fields,
    )


def decomposition(i=1, j=0, guard=1e-8):
    spec = SpikeSpec(spikes=(SpikeProfile.fixed(9.0),), n=4, d=20)
    data = generate_sample(spec, 3)
    return ratio_decomposition(data, dual_pca(data.values, rank=1), i, j, guard)


def echo_text(cfg):
    """The config echo written back as a file, lists comma-joined and
    output_dir left out."""
    return "".join(
        f"{key} = {','.join(map(str, value)) if isinstance(value, list) else value}\n"
        for key, value in json.loads(json.dumps(config_to_dict(cfg))).items()
        if key != "output_dir"
    )


# (build, the input's name in the refusal, the value refused).
REFUSALS = [
    pytest.param(lambda out: config(out, guard=True), "guard", True, id="config-guard-bool"),
    pytest.param(lambda out: SpikeTemplate(spikes=(SPIKE,), n=6, tail_value=True),
                 "template.tail_value", True, id="template-tail-bool"),
    pytest.param(lambda out: SpikeProfile(scale=True), "spike scale", True, id="scale-bool"),
    pytest.param(lambda out: SpikeProfile(scale=1.0, exponent=False), "spike exponent", False,
                 id="exponent-bool"),
    pytest.param(lambda out: SpikeProfile(scale="2"), "spike scale", "2", id="scale-string"),
    pytest.param(lambda out: SpikeSpec(spikes=(SPIKE,), n=6, d=200, mean=True), "mean value",
                 True, id="spec-mean-bool"),
    pytest.param(lambda out: SpikeSpec(spikes=(SPIKE,), n=6, d=200, tail_value=np.True_),
                 "tail_value", np.True_, id="spec-tail-numpy-bool"),
    pytest.param(lambda out: config(out, SpikeTemplate(spikes=(SPIKE,), n=6, tail_value="2")),
                 "template.tail_value", "2", id="config-tail-string"),
    pytest.param(lambda out: SpikeTemplate(spikes=(SPIKE,), n=6, mean=np.True_),
                 "template.mean", np.True_, id="template-mean-numpy-bool"),
    pytest.param(lambda out: SpikeTemplate(spikes=(SPIKE,), d_over_n="2"),
                 "template.d_over_n", "2", id="template-d_over_n-string"),
    pytest.param(lambda out: dual_pca(X, rank=2.0), "rank", 2.0, id="dual_pca-rank-float"),
    pytest.param(lambda out: dual_pca(X, rank=True), "rank", True, id="dual_pca-rank-bool"),
    pytest.param(lambda out: dual_pca(X, divisor=True), "divisor", True,
                 id="dual_pca-divisor-bool"),
    pytest.param(lambda out: dual_pca(X, divisor="7.5"), "divisor", "7.5",
                 id="dual_pca-divisor-string"),
    pytest.param(lambda out: score_ratio_table(np.ones((3, 1)), np.ones((3, 1)), math.nan),
                 "guard", math.nan, id="score_ratio_table-guard-nan"),
    pytest.param(lambda out: score_ratio_table(np.ones((3, 1)), np.ones((3, 1)), math.inf),
                 "guard", math.inf, id="score_ratio_table-guard-inf"),
    pytest.param(lambda out: decomposition(guard=math.nan), "guard", math.nan,
                 id="ratio_decomposition-guard-nan"),
    pytest.param(lambda out: decomposition(j=0.0), "j", 0.0, id="ratio_decomposition-j-float"),
    pytest.param(lambda out: comparable_sample_scores(dual_pca(X, rank=3), True), "m", True,
                 id="comparable_sample_scores-m-bool"),
    pytest.param(lambda out: comparable_sample_scores(dual_pca(X, rank=3), 1.5), "m", 1.5,
                 id="comparable_sample_scores-m-float"),
    pytest.param(lambda out: export_scores_scatter(dual_pca(X, rank=3), (True, 2), out / "s.csv"),
                 "component number", True, id="scatter-component-bool"),
    pytest.param(lambda out: export_scores_scatter(dual_pca(X, rank=3), (1.0, 2), out / "s.csv"),
                 "component number", 1.0, id="scatter-component-float"),
    pytest.param(lambda out: RLaw(True), "degrees of freedom", True, id="RLaw-n-bool"),
    pytest.param(lambda out: RLaw(2.5), "degrees of freedom", 2.5, id="RLaw-n-float"),
    pytest.param(lambda out: r_quantile("0.5", RLaw(3)), "quantile level", "0.5",
                 id="r_quantile-p-string"),
]


@pytest.mark.parametrize("build, name, value", REFUSALS)
def test_refused_with_a_value_error_naming_the_input(tmp_path, build, name, value):
    # Neither built nor run on a truncated or reinterpreted number, and not
    # a TypeError, IndexError or SystemError from deeper down.
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be .*, got "
                                         rf"{re.escape(repr(value))}$"):
        build(tmp_path)
    assert not (tmp_path / "s.csv").exists()


def test_numpy_numbers_are_stored_as_python_numbers(tmp_path):
    profile = SpikeProfile(scale=np.float32(2.0), exponent=np.int64(1))
    spec = SpikeSpec(spikes=(profile,), n=6, d=200, tail_value=np.float16(2.0),
                     mean=np.float64(0.5))
    template = SpikeTemplate(spikes=(profile,), tail_value=np.float32(2.0),
                             mean=np.float32(0.5), d_over_n=np.float64(1.5))
    cfg = config(tmp_path, guard=np.float32(1e-6))
    values = (profile.scale, profile.exponent, spec.tail_value, spec.mean,
              template.tail_value, template.mean, template.d_over_n, cfg.guard)
    assert [type(value) for value in values] == [float] * 8
    assert values[:7] == (2.0, 1.0, 2.0, 0.5, 2.0, 0.5, 1.5)
    assert cfg.guard == float(np.float32(1e-6))


class TestSpikes:
    @pytest.mark.parametrize("spikes", [(400.0,), (SPIKE, "literal:5"), ()])
    def test_spike_that_is_not_a_profile_refused(self, tmp_path, spikes):
        message = re.escape(f"spikes must be one or more SpikeProfile, got {spikes!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            SpikeSpec(spikes=spikes, n=6, d=200)
        with pytest.raises(ValueError, match=f"^grid point 200: {message}$"):
            config(tmp_path, SpikeTemplate(spikes=spikes, n=6))

    def test_lone_profile_refused(self):
        # One SpikeProfile, not a collection of them: the field's ValueError,
        # not the TypeError of iterating it.
        message = re.escape(f"spikes must be one or more SpikeProfile, got {SPIKE!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            SpikeSpec(spikes=SPIKE, n=6, d=200)
        with pytest.raises(ValueError, match=f"^{message}$"):
            SpikeTemplate(spikes=SPIKE, n=6)

    def test_template_stores_spikes_as_a_tuple(self, tmp_path):
        # So a list-built config equals its echo, parsed back.
        template = SpikeTemplate(spikes=[SPIKE], n=6)
        assert template.spikes == (SPIKE,)
        assert template == SpikeTemplate(spikes=(SPIKE,), n=6)
        cfg = config(tmp_path, template)
        assert dataclasses.replace(parse_config(echo_text(cfg)), output_dir=str(tmp_path)) == cfg


def test_numpy_sweep_writes_its_report_and_its_echo_reruns_it(tmp_path):
    # A sweep built from Python with numpy floats writes report.json, and
    # its config echo, written back as a file, is the config that ran.
    template = SpikeTemplate(spikes=(SPIKE,), n=6, tail_value=np.float32(2.0),
                             mean=np.float32(0.5))
    cfg = config(tmp_path / "first", template, guard=np.float32(1e-6))
    run_hdlss_sweep(cfg)
    report = json.loads((tmp_path / "first" / "report.json").read_text())
    assert report["config"]["template.tail"] == 2.0
    assert report["config"]["guard"] == float(np.float32(1e-6))
    again = parse_config(echo_text(cfg) + f"output_dir = {tmp_path / 'again'}\n")
    assert again == dataclasses.replace(cfg, output_dir=str(tmp_path / "again"))
    run_hdlss_sweep(again)
    first, second = (tmp_path / out / "records.csv" for out in ("first", "again"))
    assert first.read_bytes() == second.read_bytes()
