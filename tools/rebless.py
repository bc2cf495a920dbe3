#!/usr/bin/env python3
"""Deliberate re-baselining of the committed bench + accuracy references.

The committed BENCH_*.json files are the numbers CI compares every fresh
run against, and ACCURACY.json is the measured-deviation table that
`check_bench.py --tolerance-report` prints headroom from. Neither may
drift silently: a sizing change, a sharing change, or a toolchain bump
that moves them must move them HERE, in a reviewed commit, with the
before/after visible. This tool is the only sanctioned way to do that.

It re-runs every bench RUNS times with the same canonical environment the
committed baselines were recorded under (the sweep defaults baked into each
bench binary, plus the explicit overrides listed in STEPS), keeps each data
point's median over those runs, re-runs tests/test_accuracy with
AMOPT_ACCURACY_REPORT to regenerate the measured deviation table, prints an
old-vs-new summary for every shared data point (with its min-max over the
runs), and only then copies the fresh files over the committed ones.

    python3 tools/rebless.py                 # everything, then overwrite
    python3 tools/rebless.py --dry-run       # run + summarize, touch nothing
    python3 tools/rebless.py --only fft,accuracy

Run it on the box that recorded the current baselines (or accept that the
whole file changes meaning, and say so in the commit message). The
summary prints the fft-bopm / fft-bsm end-to-end speedup against the
still-committed rows so an acceptance bar ("new numbers >= 1.15x over the
old committed baseline at T = 2^13") can be checked before anything is
overwritten.
"""

import argparse
import copy
import json
import os
import shutil
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# name -> (binary, output file, extra environment, kind)
# The env must reproduce the committed sweep exactly: fig5a's default sweep
# tops out at 2^17 but the committed rows stop at 2^14 (the slow direct
# reference would take minutes beyond that), so both fig5 benches pin
# MAX_T, and the committed table5 rows were recorded at T = 2^13 (the
# binary default is 2^15 — at 4x the T its Theta(T^2) reference column
# would read as a 16x "regression"). Everything else records at its
# binary's defaults.
STEPS = {
    "fft": ("micro_fft", "BENCH_fft.json", {}, "gbench"),
    "session": ("micro_session", "BENCH_session.json", {}, "rows"),
    "alo": ("micro_alo", "BENCH_alo.json", {}, "rows"),
    # time_best takes the min over reps, so raising REPS above the binary
    # default (3) only tightens the same estimator — the fig5 rows feed the
    # end-to-end acceptance bar, so record them with the noise squeezed out.
    "bopm": ("fig5a_bopm_runtime", "BENCH_bopm.json",
             {"AMOPT_BENCH_MAX_T": "16384", "AMOPT_BENCH_REPS": "25"}, "rows"),
    "bsm": ("fig5c_bsm_runtime", "BENCH_bsm.json",
            {"AMOPT_BENCH_MAX_T": "16384", "AMOPT_BENCH_REPS": "25"}, "rows"),
    "table5": ("table5_scalability", "BENCH_table5.json",
               {"AMOPT_BENCH_T": "8192"}, "rows"),
    "server": ("micro_server", "BENCH_server.json", {}, "rows"),
    "accuracy": ("test_accuracy", "ACCURACY.json", {}, "accuracy"),
}

# Runs per bench; each point is blessed at its median. One min-of-25 run
# still records the host's load at that moment: fig5c fft-bsm at T = 8192
# read 2.03-3.65 ms over one PR's runs of the same build. The accuracy
# report is deterministic and runs once.
RUNS = 3

# Bigger-is-better columns: a drop, not a rise, is the regression.
RATIO_SERIES = {"share-x", "speedup", "quote-x", "iv-x",
                "coalesce-x", "qps-1shard", "qps-4shard"}


def run_once(name, build_dir, min_time, out_path):
    binary, _, extra_env, kind = STEPS[name]
    path = os.path.join(build_dir, binary)
    env = dict(os.environ)
    env.update(extra_env)
    cmd = [path]
    if kind == "accuracy":
        env["AMOPT_ACCURACY_REPORT"] = out_path
    elif kind == "gbench":
        cmd += [f"--benchmark_out={out_path}",
                "--benchmark_out_format=json",
                f"--benchmark_min_time={min_time}s"]
        env["AMOPT_BENCH_JSON"] = "none"
    else:
        env["AMOPT_BENCH_JSON"] = out_path
    r = subprocess.run(cmd, cwd=build_dir, env=env)
    if r.returncode != 0:
        sys.exit(f"rebless: {binary} exited with {r.returncode} — "
                 f"not re-blessing from a failing run")
    if not os.path.exists(out_path):
        sys.exit(f"rebless: {binary} produced no {out_path}")


def run_step(name, build_dir, min_time):
    """Run one step; return (blessable file, the per-run files)."""
    binary, out_name, _, kind = STEPS[name]
    path = os.path.join(build_dir, binary)
    if not os.path.exists(path):
        sys.exit(f"rebless: {path} not found — build first "
                 f"(cmake --build {build_dir} -j)")
    out_path = os.path.join(build_dir, "rebless_" + out_name)
    runs = 1 if kind == "accuracy" else RUNS
    if runs == 1:
        print(f"rebless: running {name} ({binary}) ...", flush=True)
        run_once(name, build_dir, min_time, out_path)
        return out_path, [out_path]
    run_paths = []
    for i in range(runs):
        print(f"rebless: running {name} ({binary}), run {i + 1} of {runs} ...",
              flush=True)
        run_path = os.path.join(build_dir, f"rebless_run{i + 1}_{out_name}")
        run_once(name, build_dir, min_time, run_path)
        run_paths.append(run_path)
    doc = median_doc([load(p) for p in run_paths], kind)
    with open(out_path, "w") as f:
        f.write(rows_text(doc) if kind == "rows" else
                json.dumps(doc, indent=2) + "\n")
    return out_path, run_paths


def middle(items, key=lambda x: x):
    """The median of an odd-length list: one of its own items."""
    ranked = sorted(items, key=key)
    return ranked[(len(ranked) - 1) // 2]


def median_doc(docs, kind):
    """The first run's document with every point set to its median run."""
    out = copy.deepcopy(docs[0])
    if kind == "gbench":
        runs = [{b["name"]: b for b in d["benchmarks"]} for d in docs]
        out["benchmarks"] = [
            middle([r[b["name"]] for r in runs if b["name"] in r],
                   key=lambda e: e["real_time"])
            for b in out["benchmarks"]]
        return out
    for k, row in enumerate(out["rows"]):
        for j in range(len(row["values"])):
            vals = [d["rows"][k]["values"][j] for d in docs
                    if d["rows"][k]["values"][j] is not None]
            row["values"][j] = middle(vals) if vals else None
    return out


def rows_text(doc):
    """A rows document in bench_common.hpp's write_json layout, so a bless
    diffs row by row."""
    def num(v):
        return "null" if v is None else f"{v:.9g}"
    rows = ",\n".join(
        f'    {{"T": {r["T"]}, "values": ['
        + ", ".join(num(v) for v in r["values"]) + "]}"
        for r in doc["rows"])
    series = ", ".join(f'"{s}"' for s in doc["series"])
    return (f'{{\n  "title": "{doc["title"]}",\n  "unit": "{doc["unit"]}",\n'
            f'  "series": [{series}],\n  "rows": [\n{rows}\n  ]\n}}\n')


def load(path):
    with open(path) as f:
        return json.load(f)


def flat(doc, kind):
    if kind == "gbench":
        return {b["name"]: float(b["real_time"]) for b in doc["benchmarks"]}
    if kind == "accuracy":
        return {c["name"]: float(c["measured"]) for c in doc["cases"]}
    out = {}
    for row in doc["rows"]:
        for s, v in zip(doc["series"], row["values"]):
            if v is not None:
                out[f"{s}@T={row['T']}"] = float(v)
    return out


def summarize(name, old_path, new_path, run_paths, kind):
    """Print old vs new for every shared point; return the worst slowdown."""
    if not os.path.exists(old_path):
        print(f"rebless: {name}: no committed baseline yet — all points new")
        old = {}
    else:
        old = flat(load(old_path), kind)
    new = flat(load(new_path), kind)
    runs = [flat(load(p), kind) for p in run_paths]

    def spread(key):
        if len(runs) < 2:
            return ""
        vals = [r[key] for r in runs if key in r]
        return f"  [runs {min(vals):.4g}-{max(vals):.4g}]"

    worst = ("", 1.0)
    for key in sorted(old.keys() | new.keys()):
        if key not in old:
            print(f"  new  {name} {key}: {new[key]:.4g}{spread(key)}")
            continue
        if key not in new:
            print(f"  GONE {name} {key} (was {old[key]:.4g}) — a committed "
                  f"data point vanished; make sure that is intentional")
            continue
        o, n = old[key], new[key]
        # 0 -> 0 (e.g. the allocs-steady counters) is "unchanged", not inf.
        ratio = 1.0 if o == n else (n / o if o > 0 else float("inf"))
        series = key.split("@")[0]
        better_is_high = kind == "rows" and series in RATIO_SERIES
        # "slowdown" = the direction that would trip CI: time up, ratio down.
        slow = (1.0 if o == n else
                (o / n if n > 0 else float("inf"))) if better_is_high else ratio
        if slow > worst[1]:
            worst = (key, slow)
        print(f"  {name} {key}: {o:.4g} -> {n:.4g}  ({ratio:.2f}x)"
              f"{spread(key)}")
    return worst


def e2e_bar(build_dir, names, min_ratio=1.15, t=8192):
    """fft-bopm / fft-bsm against the still-committed rows (pre-overwrite)."""
    ok = True
    for step, series in (("bopm", "fft-bopm"), ("bsm", "fft-bsm")):
        if step not in names:  # an older run's file may still be on disk
            continue
        old_path = os.path.join(REPO, STEPS[step][1])
        new_path = os.path.join(build_dir, "rebless_" + STEPS[step][1])
        if not (os.path.exists(old_path) and os.path.exists(new_path)):
            continue
        old = flat(load(old_path), "rows")
        new = flat(load(new_path), "rows")
        key = f"{series}@T={t}"
        if key not in old or key not in new:
            continue
        x = old[key] / new[key]
        status = "ok" if x >= min_ratio else "BELOW BAR"
        print(f"rebless: e2e {series} T={t}: {old[key]:.4g} -> "
              f"{new[key]:.4g} ms = {x:.2f}x over the committed baseline "
              f"[{status}, bar {min_ratio}x]")
        ok = ok and x >= min_ratio
    return ok


def main():
    ap = argparse.ArgumentParser(
        description="re-record the committed BENCH_*.json / ACCURACY.json")
    ap.add_argument("--build-dir", default=os.path.join(REPO, "build"))
    ap.add_argument("--only", default=None,
                    help="comma-separated subset of: " + ",".join(STEPS))
    ap.add_argument("--dry-run", action="store_true",
                    help="run and summarize but do not overwrite anything")
    ap.add_argument("--min-time", default="0.5",
                    help="google-benchmark min time per entry for micro_fft "
                         "(seconds; the committed baseline used 0.5)")
    args = ap.parse_args()

    names = list(STEPS) if args.only is None else args.only.split(",")
    for n in names:
        if n not in STEPS:
            sys.exit(f"rebless: unknown step '{n}' "
                     f"(choose from {', '.join(STEPS)})")

    produced = {}
    run_paths = {}
    for n in names:
        produced[n], run_paths[n] = run_step(n, args.build_dir, args.min_time)

    print(f"\nrebless: old -> new summary (new = median of {RUNS} runs)")
    for n in names:
        _, out_name, _, kind = STEPS[n]
        key, slow = summarize(n, os.path.join(REPO, out_name), produced[n],
                              run_paths[n], kind)
        if slow > 1.5 and kind != "accuracy":
            print(f"rebless: NOTE {n}: worst regression vs committed is "
                  f"{slow:.2f}x at {key} — bless only if that is expected")

    bar_ok = True
    if "bopm" in names or "bsm" in names:
        bar_ok = e2e_bar(args.build_dir, names)

    if args.dry_run:
        print("rebless: dry run — nothing overwritten")
        return
    if not bar_ok:
        sys.exit("rebless: end-to-end bar not met — fix the regression or "
                 "re-run with --dry-run to investigate; nothing overwritten")
    for n in names:
        dst = os.path.join(REPO, STEPS[n][1])
        shutil.copyfile(produced[n], dst)
        print(f"rebless: blessed {dst}")
    print("rebless: done — review `git diff` before committing")


if __name__ == "__main__":
    main()
