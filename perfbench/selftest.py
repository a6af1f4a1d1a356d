#!/usr/bin/env python3
"""Self-test of perfbench/run.py's answer checks and request accounting.

    python3 perfbench/selftest.py

Feeds the checker deliberately wrong degraded answers (a bound below the
simulated worst response, a finite bound for an overloaded job, a bound
below an exact one) and refused, failed and missing responses, and fails
unless each one is caught.  When perfbench/pb.exe is built, one case uses
real `pb sim` output for a generated heavy spec.  Exit status 1 on any
miss.
"""

import json
import math
import os
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

failures = []


def expect(what, cond):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def wrong_count(resp, exact, lower):
    chk = run.Checker()
    chk.check_degraded(resp, exact, lower)
    return len(chk.wrong)


def degraded(*bounds):
    return {"id": "d0.0.x0", "status": "degraded",
            "per_job": [{"name": f"T{k}", "bound_ticks": b} for k, b in enumerate(bounds)]}


def sim(*pairs):
    return {"per_job": [{"name": f"T{k}", "at_least": a, "unbounded": u} for k, (a, u) in enumerate(pairs)]}


def exact(method, *bounds):
    return {"method": method, "per_job": [{"name": f"T{k}", "bound_ticks": b} for k, b in enumerate(bounds)]}


def main():
    lower = sim((100, False), (200, False))
    expect("sound degraded bounds pass", wrong_count(degraded(150, 250), None, lower) == 0)
    expect("unbounded degraded answers pass", wrong_count(degraded(None, None), None, lower) == 0)
    expect("bound below the simulated worst response is wrong", wrong_count(degraded(150, 199), None, lower) == 1)
    expect("finite bound for an overloaded job is wrong",
           wrong_count(degraded(10 ** 9, None), None, sim((100, True), (200, True))) == 1)
    expect("bound below an exact bound is wrong",
           wrong_count(degraded(150, 250), exact("exact", 160, 250), lower) == 1)
    expect("finite bound where the exact one is unbounded is wrong",
           wrong_count(degraded(150, 250), exact("exact", 150, None), lower) == 1)
    expect("an approximate answer may be undercut",
           wrong_count(degraded(150, 250), exact("approximate", 160, 300), lower) == 0)

    # Accounting: refused, failed and missing requests are failures and are
    # infinitely late; only answered requests carry a latency.
    ids = [f"d0.{i}.c{i}" for i in range(5)]
    lines = [json.dumps({"id": ids[0], "status": "ok"}), json.dumps({"id": ids[1], "status": "queue_full"}),
             json.dumps({"id": ids[2], "status": "failed"}), json.dumps({"id": ids[3], "status": "timeout"})]
    lat, resp = run.phase_results(ids, [0.0] * 5, [(0.001, l.encode()) for l in lines])
    expect("ok and timeout responses have finite latency", math.isfinite(lat[0]) and math.isfinite(lat[3]))
    expect("refused, failed and missing requests are infinitely late",
           all(math.isinf(x) for x in (lat[1], lat[2], lat[4])))
    chk = run.Checker()
    expected = {"c0": {f: None for f in run.ANALYSIS_FIELDS}}
    resp[0].update({f: None for f in run.ANALYSIS_FIELDS})
    run.account(chk, {}, "selftest", ids, lat, resp, [0.0] * 5, expected, {})
    expect("refused, failed and missing requests count as failed", chk.failed == 3 and not chk.wrong)

    # Real simulated bounds for a generated heavy spec: a degraded answer one
    # tick under the simulated worst response must be caught.
    if os.path.isfile(run.PB):
        with tempfile.TemporaryDirectory(dir=".") as d:
            subprocess.run([run.PB, "gen", "serve-deadline", "1", d, "0", "1", "0"], check=True)
            out = subprocess.run([run.PB, "sim", os.path.join(d, "x.ndjson")], check=True,
                                 stdout=subprocess.PIPE, text=True).stdout
        low = json.loads(out)
        names = [j["name"] for j in low["per_job"]]
        at_least = [j["at_least"] for j in low["per_job"]]
        good = {"id": "d0.0.x0", "status": "degraded",
                "per_job": [{"name": n, "bound_ticks": a} for n, a in zip(names, at_least)]}
        bad = json.loads(json.dumps(good))
        bad["per_job"][-1]["bound_ticks"] -= 1
        expect("pb sim: bounds at the simulated worst response pass", wrong_count(good, None, low) == 0)
        expect("pb sim: a bound one tick lower is wrong", wrong_count(bad, None, low) == 1)
    else:
        print(f"skip pb sim case: {run.PB} is not built")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
