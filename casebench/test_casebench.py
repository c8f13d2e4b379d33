"""Tests of the benchmark itself: tiny runs report every metric, and each
output check rejects a corrupted output.

    PYTHONPATH=src python3 -m pytest -q casebench/test_casebench.py
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from casebench import checks  # noqa: E402
from casebench.calibrate import Clock  # noqa: E402
from casebench.measure import measure  # noqa: E402
from casebench.trace import Tracer  # noqa: E402
from casebench.workloads import Session, crf_problems, read_lines, workload  # noqa: E402
from casetag.ner import NerModel  # noqa: E402

WORKLOADS = ("truecaser-pretrain", "tagger-fixed", "tagger-finetuned")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_reports_every_metric(name, trace):
    result = measure(name, seed=3, seconds=0, trace=trace, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(expected)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"] + SPEC["end_to_end"]}
    for metric, value in result["metrics"].items():
        assert value["unit"] == declared[metric]
    if trace and name == "truecaser-pretrain":
        for idle in ("nn.charcnn_calls", "crf.nll_ms", "crf.viterbi_ms", "ner.emissions_ms"):
            assert result["metrics"][idle]["value"] == 0
    if trace and name != "truecaser-pretrain":
        assert result["metrics"]["nn.charcnn_calls"]["value"] > 0
        assert result["metrics"]["corpus.prepare_ms"]["value"] == 0


def test_clock_nests_and_restores_the_alarm_handler():
    clock = Clock()
    before = signal.getsignal(signal.SIGALRM)
    (total, inner), outer = clock.measure(
        lambda: clock.measure(lambda: sum(i * i for i in range(200000))))
    assert total == sum(i * i for i in range(200000))
    assert inner > 0 and outer > 0
    assert len(clock.samples) >= 4  # two brackets each, plus timer samples
    assert signal.getsignal(signal.SIGALRM) is before


def test_tracer_restores_every_wrapped_name():
    from casebench.trace import TARGETS

    before = [vars(owner)[attr] for owner, attr, _ in TARGETS]
    tracer = Tracer()
    tracer.install()
    tracer.remove()
    assert [vars(owner)[attr] for owner, attr, _ in TARGETS] == before


@pytest.fixture(scope="module", params=["tagger-fixed", "tagger-finetuned"])
def tagged_round(request, tmp_path_factory):
    """A tiny tagger round whose files stay on disk for corrupting."""
    workdir = str(tmp_path_factory.mktemp(request.param))
    s = Session(workdir, Tracer(), Clock())
    wl = workload(request.param, tiny=True)
    records = wl.setup(s, np.random.default_rng(5)) + [wl.round(s, "speed")]
    assert not any(r.problems for r in records)
    return request.param.partition("-")[2], s, s.sub("speed")


def _copy(s: Session, name: str, new: str) -> str:
    shutil.copyfile(s.path(name), s.path(new))
    return s.path(new)


def test_prep_check_rejects_capitals_and_rule_words(tagged_round):
    _, s, _ = tagged_round
    raw = read_lines(s.path("raw.txt"))
    kept = read_lines(s.path("kept.txt"))
    blanks = sum(1 for line in raw if not line.split())
    block = {"kept": str(len(kept)), "dropped": str(len(raw) - len(kept) - blanks),
             "dropped_empty": str(blanks)}
    assert checks.check_prep(raw, kept, block, 0.5) == (0, [])
    assert checks.check_prep(raw, [kept[0].upper()] + kept[1:], block, 0.5)[0] == 1
    raw_ruled = raw + ["Mr. alice went home ."]
    kept_ruled = kept + ["Mr. alice went home ."]
    block_ruled = dict(block, kept=str(len(kept) + 1))
    failed, problems = checks.check_prep(raw_ruled, kept_ruled, block_ruled, 0.5)
    assert failed == 1 and "rule words" in problems[0]
    bad_count = dict(block, dropped=str(int(block["dropped"]) + 1))
    assert checks.check_prep(raw, kept, bad_count, 0.5)[0] == len(raw)
    assert checks.check_prep(raw, kept[:1] + ["a changed line ."] + kept[2:],
                             block, 0.5)[0] == len(raw)


def test_truecase_check_rejects_a_character_changed_beyond_case(tagged_round):
    _, _, d = tagged_round
    gold = read_lines(d.path("heldout.txt"))
    pred = read_lines(d.path("truecased.txt"))
    block = dict(zip(("tp", "fp", "fn"), map(str, checks.char_counts(gold, pred))))
    assert checks.check_truecase(gold, pred, block) == (0, [])
    changed = [("x" if pred[0][0] != "x" else "y") + pred[0][1:]] + pred[1:]
    assert checks.check_truecase(gold, changed, block)[0] == 1
    recased = [pred[0].swapcase()] + pred[1:]
    assert checks.check_truecase(gold, recased, block)[0] == len(gold)


def test_tag_and_crf_checks_reject_a_flipped_tag(tagged_round):
    _, _, d = tagged_round
    test = checks.read_columns(d.path("test.conll"))
    tagged = checks.read_columns(d.path("tagged.conll"))
    model = NerModel.load(d.path("ner.ctr"))
    block = dict(zip(("tp", "fp", "fn"), map(str, checks.span_counts(
        [t for _, t in test], [t for _, t in tagged]))))
    assert checks.check_tags(test, tagged, model.tagset, block) == (0, [])
    assert crf_problems(model, test, tagged) == []

    tokens, tags = tagged[0]
    flipped = [(tokens, ["B-LOC" if tags[0] != "B-LOC" else "B-PER"] + tags[1:])] + tagged[1:]
    assert checks.check_tags(test, flipped, model.tagset, block)[0] == len(test)
    assert crf_problems(model, test, flipped)
    unknown = [(tokens, ["B-XYZ"] + tags[1:])] + tagged[1:]
    assert checks.check_tags(test, unknown, model.tagset, block)[0] == 1


def test_crf_check_rejects_a_wrong_nll():
    rng = np.random.default_rng(0)
    em, trans = rng.normal(size=(4, 3)), rng.normal(size=(3, 3))
    start, end = rng.normal(size=3), rng.normal(size=3)
    best = max((checks.path_score(em, trans, start, end, list(p)), list(p))
               for p in np.ndindex(3, 3, 3, 3))[1]
    gold = [0, 1, 2, 0]
    nll = checks.log_partition(em, trans, start, end) - checks.path_score(
        em, trans, start, end, gold)
    assert checks.check_crf(em, trans, start, end, best, gold, nll, rng) == []
    assert checks.check_crf(em, trans, start, end, best, gold, nll * (1 + 1e-6), rng)


def test_regime_and_container_checks_reject_a_perturbed_parameter(tagged_round):
    regime, s, d = tagged_round
    assert checks.check_regime(s.path("tc.ctr"), d.path("ner.ctr"), regime) == []
    assert checks.check_container(d.path("ner.ctr"), d.path("again.ctr")) == []
    perturbed = _copy(d, "ner.ctr", "perturbed.ctr")
    # the truecaser's parameters follow the tagger's; flip a bit of the first
    arrays = checks.read_container(perturbed)
    offset = os.path.getsize(perturbed) - sum(len(v) for v in arrays.values())
    for name, raw in arrays.items():
        if name.startswith("tc."):
            break
        offset += len(raw)
    with open(perturbed, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 1]))
    if regime == "fixed":
        assert checks.check_regime(s.path("tc.ctr"), perturbed, regime)
    else:
        assert checks.check_regime(d.path("ner.ctr"), d.path("ner.ctr"), regime)
    truncated = _copy(d, "ner.ctr", "truncated.ctr")
    with open(truncated, "r+b") as fh:
        fh.truncate(os.path.getsize(truncated) - 4)
    assert checks.check_container(truncated, d.path("again.ctr"))
