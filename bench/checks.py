"""Report checker: does one CLI report hold the answer the reference expects?

Every contract the program documents is checked, plus the reference values:

- ``allocate``: budget residual <= 1e-9 (beyond the 12-digit rendering),
  zero power on ineligible links, powers and threshold as the reference
  water-fill gives them, and each row's rate from the closed form.
- ``rate``: each row's rate from the closed form at the given power.
- ``allocate-fading``: mean power within 1 % of the budget (the contract) and,
  tighter, equal to it as calibration makes it; in JSON the reported
  threshold must reproduce that power on the calibration draws.
- ``ergodic``: threshold, mean power, rate and standard error as the
  reference calibration and estimate give them.
- ``discrete-capacity``: the maximum grid rate and, in JSON, the
  lexicographically first grid point that reaches it.
- ``pair``: roles, and pairs identical to the reference in formation order,
  with every pair inside the jamming margin.
- ``pick-prob``: feasible sets (JSON) and the contested-helper probability.

Values from an iterative solver must match within ``SOLVER_RTOL``; closed
forms within ``CLOSED_RTOL``.  Both are far above last-digit float noise and
12-digit rendering, and far below any wrong number a broken formula gives.
"""

import csv
import io
import json
import math

import numpy as np

import reference

SOLVER_RTOL = 1e-6
CLOSED_RTOL = 1e-9
BUDGET_TOL = 1e-9
FADING_BUDGET_REL_TOL = 0.01
#: A report lists at most this many errors.
MAX_ERRORS = 5


def _num(cell):
    return None if cell == "" else float(cell)


def parse(text, fmt):
    """Rows of a CSV or JSON report in one shape; JSON rows keep their ``outputs``."""
    if fmt == "csv":
        return [{"channel_id": r["channel_id"], "A": _num(r["A"]), "E": _num(r["E"]),
                 "power": _num(r["power"]), "rate_bits": _num(r["rate_bits"]),
                 "pair_with": r["pair_with"] or None, "efficiency": _num(r["efficiency"]),
                 "outputs": None}
                for r in csv.DictReader(io.StringIO(text))]
    rows = []
    for rec in json.loads(text):
        out = rec["outputs"]
        pair_with = out.get("pair_with")
        rows.append({"channel_id": str(rec["channel_id"]),
                     "A": rec["inputs"].get("A"), "E": rec["inputs"].get("E"),
                     "power": out.get("power"), "rate_bits": out.get("rate_bits"),
                     "pair_with": None if pair_with is None else str(pair_with),
                     "efficiency": out.get("efficiency"), "outputs": out})
    return rows


def _render_slack(x):
    """Largest error the 12-significant-digit rendering adds to ``x``."""
    return 0.0 if x == 0 else 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 11)


class _Errors(list):
    def close(self, what, got, want, rtol, atol=0.0):
        if got is None or not abs(got - want) <= atol + rtol * abs(want):
            self.append(f"{what}: got {got!r}, want {float(want)!r}")

    def equal(self, what, got, want):
        if got != want:
            self.append(f"{what}: got {got!r}, want {want!r}")


def _ids(errs, rows, want):
    errs.equal("row ids", [r["channel_id"] for r in rows], [str(i) for i in want])


def _check_rate(rows, exp, fmt, errs):
    sm, sw, powers = exp["sm"], exp["sw"], exp["powers"]
    _ids(errs, rows, range(1, len(sm) + 1))
    for i, row in enumerate(rows):
        errs.close(f"row {i + 1} power", row["power"], powers[i], CLOSED_RTOL)
        errs.close(f"row {i + 1} rate_bits", row["rate_bits"],
                   reference.gaussian_rate(powers[i], sm[i], sw[i]), CLOSED_RTOL, 1e-15)


def _check_allocate(rows, exp, fmt, errs):
    sm, sw, budget, powers = exp["sm"], exp["sw"], exp["budget"], exp["powers"]
    links, summary = rows[:-1], rows[-1]
    _ids(errs, links, range(1, len(sm) + 1))
    errs.equal("summary row", summary["channel_id"], "summary")
    got = [row["power"] for row in links]
    slack = sum(_render_slack(p) for p in got)
    if abs(sum(got) - budget) > BUDGET_TOL + slack:
        errs.append(f"row powers sum to {sum(got)!r}, budget {budget!r}")
    if abs(summary["power"] - budget) > BUDGET_TOL + _render_slack(budget):
        errs.append(f"summary power {summary['power']!r}, budget {budget!r}")
    for i, row in enumerate(links):
        if sw[i] <= sm[i] and row["power"] != 0:
            errs.append(f"row {i + 1}: ineligible link got power {row['power']!r}")
        errs.close(f"row {i + 1} power", row["power"], powers[i], SOLVER_RTOL,
                   BUDGET_TOL * budget)
        errs.close(f"row {i + 1} rate_bits", row["rate_bits"],
                   reference.gaussian_rate(row["power"], sm[i], sw[i]), CLOSED_RTOL, 1e-15)
    sum_rate = sum(reference.gaussian_rate(p, m, w) for p, m, w in zip(powers, sm, sw))
    errs.close("summary rate_bits", summary["rate_bits"], sum_rate, SOLVER_RTOL)
    if fmt == "json":
        errs.close("summary lambda", summary["outputs"]["lambda"], exp["lambda"], SOLVER_RTOL)


def _check_fading(rows, exp, fmt, errs, command):
    chans, budget = exp["channels"], exp["budget"]
    _ids(errs, rows, range(1, len(chans) + 1))
    for row, want, ch in zip(rows, exp["rows"], chans):
        cid = row["channel_id"]
        if fmt == "json":
            errs.equal(f"channel {cid} zero_secrecy", row["outputs"]["zero_secrecy"],
                       want["zero_secrecy"])
        if command == "ergodic":
            for key in ("power", "rate_bits"):
                errs.close(f"channel {cid} {key}", row[key], want[key], SOLVER_RTOL, 1e-15)
            if fmt == "json":
                for key in ("lambda", "stderr"):
                    errs.close(f"channel {cid} {key}", row["outputs"][key], want[key],
                               SOLVER_RTOL)
            continue
        if want["zero_secrecy"]:
            errs.equal(f"channel {cid} power", row["power"], 0.0)
            continue
        errs.close(f"channel {cid} power (1 % contract)", row["power"], budget,
                   FADING_BUDGET_REL_TOL)
        errs.close(f"channel {cid} power", row["power"], budget, SOLVER_RTOL)
        if fmt == "json":
            a, b = reference.fading_draws(exp["seed"], *want["draws"], ch["a"], ch["b"],
                                          exp["samples"])
            lam = row["outputs"]["lambda"]
            errs.close(f"channel {cid} power at reported lambda {lam!r}", row["power"],
                       float(reference.fading_powers(lam, a, b).mean()), SOLVER_RTOL)


def _check_discrete(rows, exp, fmt, errs):
    denom = exp["denom"]
    _ids(errs, rows, range(1, len(exp["rows"]) + 1))
    for row, want in zip(rows, exp["rows"]):
        cid = row["channel_id"]
        errs.close(f"channel {cid} rate_bits", row["rate_bits"], want["rate_bits"], 0.0, 1e-9)
        if fmt == "json":
            scaled = np.asarray(row["outputs"]["argmax_pmf"]) * denom
            point = np.rint(scaled)
            if np.abs(scaled - point).max() > 1e-6:
                errs.append(f"channel {cid} argmax {scaled / denom} is off the grid")
            errs.equal(f"channel {cid} argmax (grid units)", point.astype(int).tolist(),
                       want["argmax"])


def _efficiency_pair(a_helped, a_helper):
    c_helped, c_helper = math.log2(1 + a_helped), math.log2(1 + a_helper)
    return c_helped / (c_helped + c_helper)


def _check_agents(rows, chans, errs):
    for row, ch in zip(rows, chans):
        cid = row["channel_id"]
        errs.close(f"agent {cid} A", row["A"], ch["main_snr"], 1e-11)
        errs.close(f"agent {cid} E", row["E"], ch["eaves_snr"], 1e-11)


def _check_pair(rows, exp, fmt, errs):
    chans, pairs, roles = exp["channels"], exp["pairs"], exp["roles"]
    agents, pair_rows = rows[:len(chans)], rows[len(chans):]
    _ids(errs, agents, range(1, len(chans) + 1))
    _check_agents(agents, chans, errs)
    for row, ch in zip(agents, chans):
        cid, a, e = row["channel_id"], ch["main_snr"], ch["eaves_snr"]
        if fmt == "json":
            errs.equal(f"agent {cid} role", row["outputs"]["role"], roles[int(cid)])
        if a > e:
            cap = math.log2(1 + a)
            secret = cap - math.log2(1 + e)
            errs.close(f"agent {cid} rate_bits", row["rate_bits"], secret, CLOSED_RTOL, 1e-15)
            errs.close(f"agent {cid} efficiency", row["efficiency"], secret / cap,
                       CLOSED_RTOL, 1e-15)
        elif (row["rate_bits"], row["efficiency"], row["pair_with"]) != (None, None, None):
            errs.append(f"agent {cid}: disqualified row carries outputs")
    got = [(r["channel_id"], r["pair_with"]) for r in pair_rows]
    errs.equal("pairs", got, [(str(h), str(j)) for h, j in pairs])
    for row in pair_rows:
        helped, helper = chans[int(row["channel_id"]) - 1], chans[int(row["pair_with"]) - 1]
        if not helper["main_snr"] > helped["eaves_snr"] > helped["main_snr"]:
            errs.append(f"pair {row['channel_id']}-{row['pair_with']} violates the "
                        f"jamming margin")
        errs.close(f"pair {row['channel_id']} efficiency", row["efficiency"],
                   _efficiency_pair(helped["main_snr"], helper["main_snr"]), CLOSED_RTOL)


def _check_pick_prob(rows, exp, fmt, errs):
    chans, ids, starts = exp["channels"], exp["ids"], exp["starts"]
    agents, summary = rows[:-1], rows[-1]
    _ids(errs, agents, ids)
    _check_agents(agents, [chans[i - 1] for i in ids], errs)
    errs.equal("summary row", summary["channel_id"], "summary")
    prob = exp["pick_probability"]
    if fmt == "csv":
        if prob is None:
            errs.equal("pick probability", summary["efficiency"], None)
        else:
            errs.close("pick probability", summary["efficiency"], prob, CLOSED_RTOL, 1e-15)
        return
    for row, start in zip(agents, starts):
        out = row["outputs"]
        errs.equal(f"agent {row['channel_id']} feasible_set_size",
                   out["feasible_set_size"], len(ids) - start)
        errs.equal(f"agent {row['channel_id']} feasible_members",
                   out["feasible_members"], ids[start:])
    out = summary["outputs"]
    if prob is None:
        errs.equal("pick_probability", out["pick_probability"], None)
        return
    errs.close("pick_probability", out["pick_probability"], prob, CLOSED_RTOL, 1e-15)
    errs.equal("contested_helper", out["contested_helper"],
               ids[starts[exp["contested"]]])
    errs.equal("prefix_sizes", out["prefix_sizes"], exp["prefix_sizes"])


_CHECKS = {
    "rate": _check_rate,
    "allocate": _check_allocate,
    "allocate-fading": lambda r, e, f, errs: _check_fading(r, e, f, errs, "allocate-fading"),
    "ergodic": lambda r, e, f, errs: _check_fading(r, e, f, errs, "ergodic"),
    "discrete-capacity": _check_discrete,
    "pair": _check_pair,
    "pick-prob": _check_pick_prob,
}


def check(command, fmt, text, expect):
    """Errors found in one report, at most :data:`MAX_ERRORS`; empty when it is correct."""
    errs = _Errors()
    try:
        rows = parse(text, fmt)
        if not rows:
            return ["empty report"]
        _CHECKS[command](rows, expect, fmt, errs)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        errs.append(f"malformed report: {exc!r}")
    return errs[:MAX_ERRORS]
