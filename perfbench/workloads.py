"""Workload definitions and seeded input generation for the fourier-kv benchmark.

A workload fixes a model geometry, a cache geometry and the amount of work in
one episode. An episode prefills one prompt and then decodes ``steps`` tokens,
appending the trace's own next K/V rows. Inputs come from the library's
``tiny_forward`` with a fixed model seed, so ``--seed`` changes the prompt
tokens and the queries but never the model weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fourier_kv.cache import PartitionParams
from fourier_kv.traceio import TinyModelConfig, tiny_forward

MODEL_SEED = 0
VOCAB = 128

STOCK = PartitionParams(init_len=4, local_len=1024, period=32768, orders=512)
DESK = PartitionParams(init_len=4, local_len=64, period=4096, orders=16)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``group`` is the number of query heads per KV head. ``episodes`` is the
    least number of episodes a run makes; quality metrics cover exactly these,
    so they do not depend on how fast the machine is. Short episodes spread
    the prefill and set-up samples over the whole run. A run repeats further
    episodes, cycling over ``prompts`` distinct prompts, until its time is up.
    """

    name: str
    why: str
    layers: int
    kv_heads: int
    group: int
    head_dim: int
    partition: PartitionParams
    prompt_len: int
    prompts: int
    steps: int
    episodes: int

    @property
    def min_steps(self) -> int:
        return self.steps * self.episodes


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="prefill_stock",
            why="stock geometry, four distinct 2048-token prompts: compress_batch dominates "
            "prefill; a decode tail keeps every end-to-end metric defined",
            layers=1,
            kv_heads=2,
            group=1,
            head_dim=128,
            partition=STOCK,
            prompt_len=2048,
            prompts=4,
            steps=14,
            episodes=12,
        ),
        Workload(
            name="decode_desk_wide",
            why="desk geometry, 8 layers x 4 KV heads: per-head Python work and basis columns "
            "repeated across heads dominate, and appends are large next to reads",
            layers=8,
            kv_heads=4,
            group=1,
            head_dim=64,
            partition=DESK,
            prompt_len=1024,
            prompts=1,
            steps=7,
            episodes=16,
        ),
        Workload(
            name="decode_stock_gqa",
            why="stock geometry, 1 KV head read by 2 query heads: per-query reconstruction "
            "at large k dominates, not per-head duplication",
            layers=1,
            kv_heads=1,
            group=2,
            head_dim=128,
            partition=STOCK,
            prompt_len=2048,
            prompts=4,
            steps=14,
            episodes=16,
        ),
    )
}


@dataclass
class Inputs:
    """Seeded inputs of one run.

    ``fulls[p]`` is prompt ``p`` plus its continuation (``prompt_len + steps``
    positions); ``queries[e]`` has shape ``(steps, layers, kv_heads, group,
    head_dim)`` and serves episode ``e`` (later episodes reuse them cyclically).
    ``retrieval[e]`` marks the retrieval-like entries of ``queries[e]``.
    """

    fulls: list
    queries: list
    retrieval: list


def make_inputs(w: Workload, seed: int) -> Inputs:
    """Generate the traces and queries of one run from ``seed``."""
    config = TinyModelConfig(
        layers=w.layers,
        heads=w.kv_heads * w.group,
        kv_heads=w.kv_heads,
        head_dim=w.head_dim,
        vocab=VOCAB,
        seed=MODEL_SEED,
    )
    length = w.prompt_len + w.steps
    fulls = []
    for p in range(w.prompts):
        tokens = np.random.default_rng([seed, 0, p]).integers(0, VOCAB, size=length)
        fulls.append(tiny_forward(config, tokens))
    queries, retrieval = draw_queries(w, fulls, np.random.default_rng([seed, 1]))
    return Inputs(fulls=fulls, queries=list(queries), retrieval=list(retrieval))


def draw_queries(w: Workload, fulls, rng: np.random.Generator):
    """Decode queries that put attention mass on the compressed middle.

    With the current token's own key as the query, the local window dominates
    and any readout scores a cosine near 1. Instead, per step and KV head,
    exactly one query is retrieval-like: the exact key at a position of the
    prompt's middle region. The others are diffuse: seeded Gaussian
    directions scaled to the head's mean key norm. The query heads of a KV
    head take turns at the retrieval query; a KV head with one query head
    alternates retrieval and diffuse steps. The retrieval positions of one KV
    head over all episodes are stratified: one per equal share of the middle
    region, with a seeded offset and a seeded order, so that the low tail of
    the cosines does not hinge on which few positions a seed happens to draw.

    Returns arrays of shape ``(episodes, steps, layers, kv_heads, group,
    head_dim)`` and, without the last axis, the retrieval mask.
    """
    part = w.partition
    mid_lo = part.init_len
    mid_hi = w.prompt_len - part.local_len
    if mid_hi <= mid_lo:
        raise ValueError(f"{w.name}: prompt of {w.prompt_len} tokens has no middle region")
    shape = (w.episodes, w.steps, w.layers, w.kv_heads, w.group)
    turns = max(w.group, 2)
    slots = np.indices(shape).reshape(len(shape), -1).T  # (e, s, layer, head, j) rows
    is_retrieval = (slots[:, 1] + slots[:, 4]) % turns == 0
    retrieval = is_retrieval.reshape(shape)
    queries = np.empty(shape + (w.head_dim,))
    for layer in range(w.layers):
        for head in range(w.kv_heads):
            mine = slots[is_retrieval & (slots[:, 2] == layer) & (slots[:, 3] == head)]
            count = len(mine)
            strata = (np.arange(count) + rng.uniform()) * ((mid_hi - mid_lo) / count)
            positions = mid_lo + rng.permutation(strata.astype(np.int64))
            for (e, s, _, _, j), pos in zip(mine, positions):
                queries[e, s, layer, head, j] = fulls[e % w.prompts].keys[layer, head, pos]
            norms = [float(np.linalg.norm(full.keys[layer, head, : w.prompt_len], axis=1).mean())
                     for full in fulls]
            for e, s, _, _, j in slots[~is_retrieval & (slots[:, 2] == layer)
                                       & (slots[:, 3] == head)]:
                g = rng.standard_normal(w.head_dim)
                queries[e, s, layer, head, j] = g * (norms[e % w.prompts] / np.linalg.norm(g))
    return queries, retrieval
