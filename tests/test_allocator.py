"""The heap-top setting made when ``tie`` is imported: its effect on a
training step's page faults, and its fallback without glibc's ``mallopt``."""

import ctypes
import platform
import resource
import statistics
from types import SimpleNamespace

import pytest

import tie
from tie import trainer as T
from tie.data import build_vocab
from tie.instructions import build_pool
from tie.model import ModelConfig, Parameters
from tie.synth import make_synth


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_training_steps_keep_their_pages(monkeypatch):
    # synth RE, d=32, batch 16: with the heap top trimmed after every step,
    # each step faults ~760 pages back in; kept, none
    ds, templates = make_synth("re", 60, 1)[0]
    vocab = build_vocab([ds], extra_texts=templates)
    cfg = ModelConfig(d=32, heads=4, max_len=64, max_instr_len=48, vocab_size=len(vocab))
    pool = build_pool([ds], {ds.id: templates}, vocab, cfg.max_instr_len)
    params = Parameters(cfg, ds.label_space.num_channels, T.rng_for(1, "init"))
    faults, gated_step = [], T.gated_step

    def counted(*args, **kwargs):
        decisions = gated_step(*args, **kwargs)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        return decisions

    monkeypatch.setattr(T, "gated_step", counted)
    ft = T.TrainConfig(batch_size=16, lr=3e-3, finetune_epochs=10**9, finetune_max_steps=40)
    T.finetune(T.TrainState.fresh(params, 3e-3), ds, pool, vocab, ft, 1, eval_dev=False)
    per_step = [b - a for a, b in zip(faults, faults[1:])]
    assert len(per_step) == 39
    assert statistics.median(per_step) < 10, per_step


def test_heap_top_setting_is_m_top_pad(monkeypatch):
    calls = []
    libc = SimpleNamespace(mallopt=lambda *args: calls.append(args))
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    tie._keep_heap_top()
    assert calls == [(-2, 16 << 20)]


def _no_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_no_library, lambda name: object()],
                         ids=["no_library", "no_mallopt"])
def test_heap_top_setting_without_mallopt_does_nothing(monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    tie._keep_heap_top()
