"""Seeded workload generator: scenario files, command lists, reference answers.

Each workload is a fixed list of ``secrecylab`` CLI commands over scenario
files drawn from the workload seed.  The same seed always writes the same
files; only the values inside them change with the seed, never the sizes,
sample counts, grid steps or formats, so the cost of a command list is the
same on every seed and runs with different seeds measure the same work.

Why each workload exists, and which input properties it varies:

``fading-mc``
    ``allocate-fading`` and ``ergodic`` on fading links.  This is the one
    workload where ``allocation.calibrate_fading_lambda`` does nearly all the
    work, and the Monte Carlo use of ``allocation``.  It varies the
    active-slot fraction (a strong link with ``a >> b``, a marginal one with
    ``a ~ b`` and an adverse one with ``a < b``, under budgets from 0.1 to
    10) and the sample count against the caches: 1e4 samples are 80 KB
    arrays, inside L2; 1e6 samples are 8 MB arrays, beyond L2.

``discrete-grid``
    ``discrete-capacity`` on random 3x3 channels at grid step 0.005 and 4x4
    channels at grid steps 0.01 and 0.005, where ``discrete.max_secrecy_rate_grid`` is nearly all the
    time.  It varies the alphabet size and the grid step, and with them the
    size of the grid's chunk tensors.  The default step 1e-3 is left out:
    one 4-input channel takes about five minutes there.

``bank``
    ``allocate`` and ``rate`` on a large gaussian bank, ``pair`` and
    ``pick-prob`` on a large agent-snr bank.  The ``scenario`` layer works
    both ways here: it reads a large file on every command and writes
    thousands of rows.  It varies the report format (CSV and JSON
    alternate) and the feasible-set density (agents whose eavesdroppers are
    barely stronger than they are have dense helper sets, agents with much
    stronger eavesdroppers sparse ones).  It is the deterministic use of
    ``allocation``, beside the Monte Carlo use in ``fading-mc``.

Each workload is also the bypass workload for the layers it does not use:
an optimisation there should leave its numbers unchanged.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

import reference

WORKLOADS = ("fading-mc", "discrete-grid", "bank")


@dataclass(frozen=True)
class Command:
    """One CLI call: its argv, the report it writes, and the answer it must give."""

    argv: tuple
    command: str
    fmt: str
    out: str
    expect: dict


@dataclass(frozen=True)
class Workload:
    commands: tuple
    #: Bytes the dominant kernel touches per call, computed from the inputs.
    working_set_bytes: dict


def _write_scenario(path, channels, seed):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema_version": 1, "seed": seed, "channels": channels}, fh)


def _command(workdir, index, command, scenario, fmt, expect, *flags):
    out = os.path.join(workdir, f"report-{index}-{command}.{fmt}")
    argv = (command, "--scenario", scenario, *flags, "--format", fmt, "--out", out)
    return Command(argv=argv, command=command, fmt=fmt, out=out, expect=expect)


def _fading_mc(rng, workdir):
    seed = int(rng.integers(2 ** 32))
    a_strong = rng.uniform(4.0, 6.0)
    a_marginal = rng.uniform(1.0, 1.5)
    b_adverse = rng.uniform(2.0, 3.0)
    links = [
        (a_strong, a_strong * rng.uniform(0.08, 0.12)),      # strong: a >> b
        (a_marginal, a_marginal * rng.uniform(0.9, 1.1)),    # marginal: a ~ b
        (b_adverse * rng.uniform(0.3, 0.5), b_adverse),      # adverse: a < b
    ]
    channels = [{"type": "fading", "a": a, "b": b,
                 "sigma_m_sq": rng.uniform(0.8, 1.2),
                 "sigma_w_sq": rng.uniform(0.8, 1.2)} for a, b in links]
    # The 1e6-sample link is fixed; only its draws change with the seed.
    # Calibration brackets the threshold between powers of two, and the
    # lowest threshold it tries sets the active slots, so the peak memory
    # jumps when the threshold crosses a power of two.  This link's
    # threshold (about 2**-3.3) stays clear of one.
    strong = [{"type": "fading", "a": 5.0, "b": 0.5, "sigma_m_sq": 1.0, "sigma_w_sq": 1.0}]
    mix = os.path.join(workdir, "fading-mix.scenario")
    single = os.path.join(workdir, "fading-single.scenario")
    _write_scenario(mix, channels, seed)
    _write_scenario(single, strong, seed)

    # (command, scenario, channels, samples, budget, format).  One cheaper and
    # one costlier command around three of like cost, so the median command
    # falls in the middle of their pooled samples.
    plan = [
        ("allocate-fading", mix, channels, 10_000, 10.0, "csv"),
        ("allocate-fading", mix, channels, 100_000, 1.0, "json"),
        ("ergodic", mix, channels, 100_000, 0.1, "csv"),
        ("ergodic", mix, channels, 100_000, 3.0, "json"),
        ("allocate-fading", single, strong, 1_000_000, 2.0, "csv"),
    ]
    commands = []
    for i, (command, path, chans, samples, budget, fmt) in enumerate(plan):
        expect = reference.fading(command, chans, seed, samples, budget)
        commands.append(_command(workdir, i, command, path, fmt, expect,
                                 "--samples", str(samples), "--budget", repr(budget)))
    ws = {"fading draw arrays, largest call": 2 * 8 * max(p[3] for p in plan)}
    return commands, ws


def _random_discrete(rng, n):
    """A random n x n channel whose legitimate link is the less noisy one."""
    eye = np.eye(n)
    eps = rng.uniform(0.05, 0.3)
    delta = rng.uniform(0.5, 0.8)
    main = (1 - eps) * eye + eps * rng.dirichlet(np.ones(n), n)
    eaves = (1 - delta) * eye + delta * rng.dirichlet(np.ones(n), n)
    # Rows must sum to 1 within 1e-12 after the JSON round trip.
    main /= main.sum(axis=1, keepdims=True)
    eaves /= eaves.sum(axis=1, keepdims=True)
    return main, eaves


def _discrete_grid(rng, workdir):
    seed = int(rng.integers(2 ** 32))
    files = {}
    for n, count in ((3, 3), (4, 2)):
        mats = [_random_discrete(rng, n) for _ in range(count)]
        path = os.path.join(workdir, f"discrete-{n}x{n}.scenario")
        _write_scenario(path, [{"type": "discrete", "main": m.tolist(), "eaves": e.tolist()}
                               for m, e in mats], seed)
        files[n] = (path, mats)

    # One cheaper and one costlier command around two of like cost, so the
    # median command falls in the middle of the like-cost pair's samples.
    plan = [(3, 0.005, "json"), (4, 0.01, "json"), (4, 0.01, "csv"), (4, 0.005, "json")]
    commands = []
    for i, (n, step, fmt) in enumerate(plan):
        path, mats = files[n]
        expect = reference.discrete(mats, step)
        commands.append(_command(workdir, i, "discrete-capacity", path, fmt, expect,
                                 "--grid-step", repr(step)))
    # The search evaluates 2**18-row chunks of (rows, |X|, |Y|) joint tensors.
    ws = {"grid joint tensor chunk, 4x4": (1 << 18) * 4 * 4 * 8}
    return commands, ws


def _gaussian_bank(rng, n):
    sigma_m = np.exp(rng.uniform(np.log(0.5), np.log(2.0), n))
    kind = rng.random(n)
    ratio = np.where(kind < 0.7, rng.uniform(1.05, 4.0, n),      # eligible
                     rng.uniform(0.25, 1.0, n))                   # ineligible
    ratio[kind > 0.98] = 1.0                                      # equal noise: ineligible
    return [{"type": "gaussian", "sigma_m_sq": float(m), "sigma_w_sq": float(m * r)}
            for m, r in zip(sigma_m, ratio)]


def _agent_bank(rng, n):
    main = np.exp(rng.uniform(np.log(0.5), np.log(50.0), n))
    kind = rng.random(n)
    ratio = np.select(
        [kind < 0.4, kind < 0.7, kind < 0.99],
        [rng.uniform(0.2, 0.95, n),     # qualified
         rng.uniform(1.0, 1.3, n),      # disqualified, dense helper set
         rng.uniform(5.0, 30.0, n)],    # disqualified, sparse helper set
        1.0)                            # boundary: eaves_snr == main_snr
    eaves = main * ratio
    # One contested agent: only the strongest agent can jam for it, so
    # pick-prob always has a probability to report.
    top2 = np.sort(main[1:])[-2:]
    main[0] = top2[0] / 2
    eaves[0] = 0.5 * (top2[0] + top2[1])
    return [{"type": "agent-snr", "main_snr": float(a), "eaves_snr": float(e)}
            for a, e in zip(main, eaves)]


def _bank(rng, workdir):
    seed = int(rng.integers(2 ** 32))
    gauss = _gaussian_bank(rng, 10_000)
    agents = _agent_bank(rng, 2_000)
    gpath = os.path.join(workdir, "gaussian-bank.scenario")
    apath = os.path.join(workdir, "agent-bank.scenario")
    _write_scenario(gpath, gauss, seed)
    _write_scenario(apath, agents, seed)

    plan = [
        ("allocate", gpath, "csv", 20.0),
        ("rate", gpath, "csv", 1.5),
        ("pair", apath, "json", None),
        ("pick-prob", apath, "json", None),
        ("allocate", gpath, "json", 200.0),
        ("pick-prob", apath, "csv", None),
        ("pair", apath, "csv", None),
    ]
    commands = []
    for i, (command, path, fmt, budget) in enumerate(plan):
        flags = () if budget is None else ("--budget", repr(budget))
        chans = gauss if path == gpath else agents
        expect = reference.bank(command, chans, budget)
        commands.append(_command(workdir, i, command, path, fmt, expect, *flags))
    ws = {"gaussian scenario file": os.path.getsize(gpath),
          "agent scenario file": os.path.getsize(apath)}
    return commands, ws


_BUILDERS = {"fading-mc": _fading_mc, "discrete-grid": _discrete_grid, "bank": _bank}


def build(name, seed, workdir):
    """Write the workload's scenario files into ``workdir`` and return it."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(WORKLOADS.index(name),)))
    commands, ws = _BUILDERS[name](rng, workdir)
    return Workload(commands=tuple(commands), working_set_bytes=ws)
