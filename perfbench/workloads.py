"""Seeded scenario generators and reference answers for the two workloads.

``wscc9_cct`` screens (fault bus, load level) pairs of the 9-bus fixture by
critical clearing time; ``ring33_cli`` runs single contingencies of the
33-machine ring through the command-line front end.  Both draw their
scenarios in stratified blocks and a run measures whole blocks, so every
run sees the same mix of cheap and expensive cases whatever the seed: a
30 s run holds only about a dozen CCT searches, and a plain random draw of
so few made the op latency quantiles differ by 10-25 % between seeds.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFS_DIR = Path(__file__).resolve().parent / "refs"

WSCC9_BUSES = tuple(range(1, 10))
WSCC9_LEVELS = tuple(round(0.80 + 0.05 * i, 2) for i in range(9))  # 0.80:1.20:0.05
WSCC9_STRATA = 12  # pairs per block
# acceptance configuration of the wscc9 model set
WSCC9_MODEL = dict(levels=(0.8, 1.0, 1.2), ranks=(30, 36), seed=0,
                   cp_options=dict(max_iters=400, restarts=2, fit_tolerance=1e-9))

RING_SYSTEM = "ring:33"
RING_BUSES = tuple(range(1, 34))
RING_STUDY_BUS = 1                       # terminal bus of the study machine G1
RING_CLEAR_STEPS = tuple(range(5, 101))  # t_clear = k * 0.01 s, 0.05 .. 1.00
RING_BLOCK = 12                          # scenarios per block
RING_BAND = len(RING_CLEAR_STEPS) // RING_BLOCK  # clearing-time grid points per stratum
RING_MODES = ("force_full", "adaptive", "force_hybrid")

STATE_TOL = 1e-6  # relative tolerance on final-state digests


def wscc9_blocks(seed: int, work: dict):
    """Endless blocks of (bus, level) pairs.  The 81 pairs are ranked by
    the work of their force_full CCT search (simulated steps, recorded
    with the references) and cut into WSCC9_STRATA strata; a block takes
    one random pair from every stratum, so each block holds the same
    spread of cheap and expensive searches whatever the seed."""
    rng = np.random.default_rng([seed, 9])
    ranked = sorted(work, key=lambda k: (work[k], k))
    strata = [list(s) for s in np.array_split(np.array(ranked, dtype=object), WSCC9_STRATA)]
    while True:
        block = [s[rng.integers(len(s))] for s in strata]
        yield [wscc9_pair(block[i]) for i in rng.permutation(len(block))]


def ring_blocks(seed: int):
    """Endless blocks of (fault bus, clearing step) pairs.  A third of each
    block faults the study machine's bus, the rest distinct other buses,
    and every block takes one clearing time from each of RING_BLOCK equal
    slices of the grid."""
    rng = np.random.default_rng([seed, 33])
    others = [b for b in RING_BUSES if b != RING_STUDY_BUS]
    n_study = RING_BLOCK // 3
    while True:
        buses = [RING_STUDY_BUS] * n_study + [
            int(b) for b in rng.choice(others, RING_BLOCK - n_study, replace=False)]
        picks = [(b, RING_CLEAR_STEPS[band * RING_BAND + int(rng.integers(RING_BAND))])
                 for b, band in zip(buses, rng.permutation(RING_BLOCK))]
        yield [picks[i] for i in rng.permutation(RING_BLOCK)]


def t_clear_text(step: int) -> str:
    """Clearing time as the CLI receives it."""
    return f"{step / 100:.2f}"


def state_digest(x) -> list:
    """Two projections of a state vector, its plain sum and a fixed sine
    weighting: the reference keeps these instead of all 297 states."""
    x = np.asarray(x, dtype=float)
    w = np.sin(np.arange(1, x.size + 1))
    return [float(np.sum(x)), float(x @ w)]


def digest_close(got, ref, tol: float = STATE_TOL) -> bool:
    return all(abs(g - r) <= tol * (1.0 + abs(r)) for g, r in zip(got, ref))


def synchronous(x) -> bool:
    """True when all rotor angles of a final state (every ninth entry)
    lie within pi of each other: the run settled instead of slipping
    poles.  Only such runs have a final state stable enough to compare
    within a tolerance."""
    d = np.asarray(x)[::9]
    return bool(np.max(d) - np.min(d) < math.pi)


def load_refs(workload: str) -> dict:
    with open(REFS_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def wscc9_key(bus: int, level: float) -> str:
    return f"{bus}@{level:.2f}"


def wscc9_pair(key: str):
    bus, level = key.split("@")
    return int(bus), float(level)


def ring_key(bus: int, step: int) -> str:
    return f"{bus}@{step}"
