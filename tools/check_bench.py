#!/usr/bin/env python3
"""Bench-regression guard for CI.

Validates the shape of a freshly produced benchmark JSON and compares it
against a committed baseline with a generous slowdown threshold (CI runners
and dev boxes differ widely, so the guard only catches gross regressions —
a kernel accidentally knocked off its vector path, an O(n log n) pipeline
degrading to O(n^2) — not single-digit percentages).

Two formats:
  * --kind gbench : google-benchmark JSON (bench/micro_fft.cpp). Entries are
    matched by benchmark name; `cpu_time` is compared.
  * --kind rows   : the bench_common.hpp writer (bench/micro_session.cpp):
    {"title", "unit", "series", "rows": [{"T", "values": [...]}]}. Rows are
    matched by T and compared per series. Only series listed in
    --row-series (default: all) are compared; ratio-like series (e.g. a
    "speedup" column, where bigger is better) can be checked with
    --min-series NAME=VALUE instead.

With --check-simd-speedup (gbench only), additionally asserts the AVX2
dispatch path's round-trip FFT beats the scalar path by the required factor
at n >= 4096 whenever both paths appear in the fresh run — the PR 3
acceptance bar, kept green by CI.

With --pair-speedup SLOW:FAST:FACTOR:MIN_N (repeatable), asserts a
within-run speedup of FAST over SLOW by FACTOR. For gbench, FAST/SLOW are
benchmark-name prefixes and every FAST<level>/n with n >= MIN_N is
compared against its SLOW<level>/n counterpart — the PR 4 spectral-path
bars. For rows, FAST/SLOW are series names of the SAME fresh file and
every shared row with T >= MIN_N is compared — the PR 6 boundary-engine
bars (quote-fft over quote-boundary, iv-lattice over iv-boundary from
bench/micro_alo.cpp). Both compare within one run on one machine, so the
bars are load-tolerant in a way baseline comparisons are not. A FACTOR
below 1 bounds a slowdown instead: FAST may cost at most 1/FACTOR of SLOW.
In both forms a gate that matches no pair fails, so renaming a bench
cannot silently drop its gate.

With --alloc-budget SERIES=MAX (rows only, repeatable), asserts the fresh
SERIES never exceeds MAX on any row — the steady-state
allocations-per-descend counter emitted by bench/micro_session.cpp, which
the PR 5 scratch arena pins at zero.

With --latency-budget SERIES=MAX (rows only, repeatable), asserts the
fresh SERIES stays at or below MAX (a float, typically microseconds) on
every row — the daemon's p50/p99 round-trip columns from
bench/micro_server.cpp. Budgets are absolute per-row ceilings, so CI sets
them generously (they catch a coalescing window accidentally left in the
latency path, not scheduler jitter).

With --tolerance-report, --fresh is an accuracy report produced by
tests/test_accuracy (AMOPT_ACCURACY_REPORT=path) and --baseline is the
committed ACCURACY.json. For every case the fresh measured max price
deviation is printed alongside the committed contract value and the
headroom factor (contract / measured), so CI logs show the headroom
shrinking BEFORE a breach; the check fails on any measured deviation above
its contract, and flags (without failing) cases whose headroom has dropped
below 2x. --kind is not needed in this mode.
"""

import argparse
import json
import sys


def fail(msg: str) -> None:
    print(f"check_bench: FAIL: {msg}")
    sys.exit(1)


def load(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {path}: {e}")


def gbench_times(doc, path):
    if "benchmarks" not in doc or not isinstance(doc["benchmarks"], list):
        fail(f"{path}: missing 'benchmarks' array (not google-benchmark JSON?)")
    out = {}
    for b in doc["benchmarks"]:
        # real_time, not cpu_time: the large-n FFT benches take the OpenMP
        # path, and process CPU time scales with the host's core count —
        # wall time is the machine-comparable quantity.
        if "name" not in b or "real_time" not in b:
            fail(f"{path}: benchmark entry without name/real_time: {b}")
        if not isinstance(b["real_time"], (int, float)) or b["real_time"] <= 0:
            fail(f"{path}: non-positive real_time for {b['name']}")
        out[b["name"]] = float(b["real_time"])
    if not out:
        fail(f"{path}: no benchmarks recorded")
    return out


def rows_values(doc, path):
    for key in ("title", "unit", "series", "rows"):
        if key not in doc:
            fail(f"{path}: missing '{key}' (not a bench_common rows JSON?)")
    series = doc["series"]
    out = {}
    for row in doc["rows"]:
        if "T" not in row or "values" not in row:
            fail(f"{path}: row without T/values: {row}")
        if len(row["values"]) != len(series):
            fail(f"{path}: row T={row['T']} has {len(row['values'])} values "
                 f"for {len(series)} series")
        for name, v in zip(series, row["values"]):
            if v is not None:
                out[(row["T"], name)] = float(v)
    if not out:
        fail(f"{path}: no rows recorded")
    return out


def compare(fresh, base, factor, label):
    compared = 0
    for key, base_v in sorted(base.items()):
        if key not in fresh:
            continue  # smoke runs cover a subset of the committed sweep
        fresh_v = fresh[key]
        compared += 1
        if fresh_v > base_v * factor:
            fail(f"{label} {key}: fresh {fresh_v:.3g} vs baseline "
                 f"{base_v:.3g} exceeds the {factor}x slowdown threshold")
        print(f"check_bench: ok {label} {key}: {fresh_v:.3g} "
              f"(baseline {base_v:.3g})")
    if compared == 0:
        fail(f"{label}: fresh run and baseline share no data points")
    print(f"check_bench: {compared} {label} point(s) within {factor}x")


def check_simd_speedup(times, min_speedup, min_n):
    pairs = 0
    for name, scalar_t in times.items():
        if "<scalar>" not in name:
            continue
        tail = name.split("/")[-1]
        if not tail.isdigit() or int(tail) < min_n:
            continue
        avx2 = name.replace("<scalar>", "<avx2>")
        if avx2 not in times:
            continue
        speedup = scalar_t / times[avx2]
        pairs += 1
        # Only the complex round trip is enforced (the PR 3 acceptance
        # metric); the other families are reported as info — they track the
        # same kernels but are noisier on shared runners.
        enforced = "BM_FftRoundTrip" in name
        if speedup >= min_speedup:
            status = "ok"
        else:
            status = "FAIL" if enforced else "info(low)"
        print(f"check_bench: {status} speedup {name} -> {speedup:.2f}x")
        if enforced and speedup < min_speedup:
            fail(f"{name}: avx2 speedup {speedup:.2f}x below the required "
                 f"{min_speedup}x at n >= {min_n}")
    if pairs == 0:
        print("check_bench: no scalar/avx2 pairs at the required size "
              "(host without AVX2?) — speedup check skipped")


def check_alloc_budget(fresh, spec):
    name, _, value = spec.partition("=")
    budget = float(value)
    found = False
    for (t, s), v in sorted(fresh.items()):
        if s != name:
            continue
        found = True
        status = "ok" if v <= budget else "FAIL"
        print(f"check_bench: {status} alloc-budget {name} T={t}: {v:.0f} "
              f"(budget {budget:.0f})")
        if v > budget:
            fail(f"series {name} at T={t}: {v:.0f} allocations exceed the "
                 f"budget of {budget:.0f}")
    if not found:
        fail(f"--alloc-budget: series {name} not present in the fresh run")


def check_latency_budget(fresh, spec):
    name, _, value = spec.partition("=")
    budget = float(value)
    found = False
    for (t, s), v in sorted(fresh.items()):
        if s != name:
            continue
        found = True
        status = "ok" if v <= budget else "FAIL"
        print(f"check_bench: {status} latency-budget {name} T={t}: "
              f"{v:.3g} (budget {budget:.3g})")
        if v > budget:
            fail(f"series {name} at T={t}: {v:.3g} exceeds the latency "
                 f"budget of {budget:.3g}")
    if not found:
        fail(f"--latency-budget: series {name} not present in the fresh run")


def check_rows_pair_speedup(fresh, spec):
    parts = spec.split(":")
    if len(parts) != 4:
        fail(f"--pair-speedup expects SLOW:FAST:FACTOR:MIN_T, got '{spec}'")
    slow, fast = parts[0], parts[1]
    factor, min_t = float(parts[2]), int(parts[3])
    pairs = 0
    for (t, name), slow_v in sorted(fresh.items()):
        if name != slow or t < min_t or (t, fast) not in fresh:
            continue
        speedup = slow_v / fresh[(t, fast)]
        pairs += 1
        status = "ok" if speedup >= factor else "FAIL"
        print(f"check_bench: {status} pair-speedup {fast} vs {slow} T={t} "
              f"-> {speedup:.2f}x (need {factor}x)")
        if speedup < factor:
            fail(f"{fast} at T={t}: {speedup:.2f}x over {slow}, below the "
                 f"required {factor}x")
    if pairs == 0:
        fail(f"--pair-speedup {spec}: no rows with both {slow} and {fast} "
             f"at T >= {min_t}")


def check_pair_speedup(times, spec):
    parts = spec.split(":")
    if len(parts) != 4:
        fail(f"--pair-speedup expects SLOW:FAST:FACTOR:MIN_N, got '{spec}'")
    slow_prefix, fast_prefix = parts[0], parts[1]
    factor, min_n = float(parts[2]), int(parts[3])
    pairs = 0
    for name, fast_t in sorted(times.items()):
        if not name.startswith(fast_prefix + "<"):
            continue
        tail = name.split("/")[-1]
        if not tail.isdigit() or int(tail) < min_n:
            continue
        slow = slow_prefix + name[len(fast_prefix):]
        if slow not in times:
            continue
        speedup = times[slow] / fast_t
        pairs += 1
        status = "ok" if speedup >= factor else "FAIL"
        print(f"check_bench: {status} pair-speedup {name} vs {slow} -> "
              f"{speedup:.2f}x (need {factor}x)")
        if speedup < factor:
            fail(f"{name}: speedup over {slow} is {speedup:.2f}x, below the "
                 f"required {factor}x at n >= {min_n}")
    if pairs == 0:
        # A renamed or dropped bench must not silently retire its gate.
        fail(f"--pair-speedup {spec}: no {fast_prefix}<level>/n with a "
             f"{slow_prefix} counterpart at n >= {min_n} in the fresh run")


def accuracy_cases(doc, path):
    if "cases" not in doc or not isinstance(doc["cases"], list):
        fail(f"{path}: missing 'cases' array (not a test_accuracy report?)")
    out = {}
    for c in doc["cases"]:
        for key in ("name", "contract", "measured"):
            if key not in c:
                fail(f"{path}: case without '{key}': {c}")
        out[c["name"]] = (float(c["contract"]), float(c["measured"]))
    if not out:
        fail(f"{path}: no cases recorded")
    return out


def check_tolerance_report(fresh, base, fresh_path, base_path):
    compared = 0
    for name, (contract, committed) in sorted(base.items()):
        if name not in fresh:
            fail(f"tolerance-report: case '{name}' missing from {fresh_path}")
        fresh_contract, measured = fresh[name]
        if fresh_contract != contract:
            fail(f"tolerance-report {name}: contract changed "
                 f"({fresh_contract:.3g} vs committed {contract:.3g}) — "
                 f"re-bless {base_path} deliberately, not by drift")
        compared += 1
        headroom = contract / measured if measured > 0 else float("inf")
        note = "" if headroom >= 2.0 else "  << headroom below 2x"
        print(f"check_bench: tolerance {name}: measured {measured:.3g} "
              f"(committed {committed:.3g}) vs contract {contract:.3g} "
              f"— headroom {headroom:.1f}x{note}")
        if measured > contract:
            fail(f"{name}: measured deviation {measured:.3g} breaches the "
                 f"contract {contract:.3g}")
    for name in sorted(set(fresh) - set(base)):
        print(f"check_bench: tolerance {name}: new case (not in {base_path})")
    if compared == 0:
        fail("tolerance-report: no shared cases")
    print(f"check_bench: {compared} tolerance case(s) inside contract")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--fresh", required=True)
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--kind", choices=["gbench", "rows"])
    ap.add_argument("--tolerance-report", action="store_true",
                    help="treat --fresh/--baseline as test_accuracy reports "
                         "and print measured deviation vs contract headroom")
    ap.add_argument("--factor", type=float, default=2.0)
    ap.add_argument("--row-series", nargs="*", default=None,
                    help="rows kind: series names to threshold-compare "
                         "(default: all)")
    ap.add_argument("--min-series", action="append", default=[],
                    metavar="NAME=VALUE",
                    help="rows kind: require fresh series NAME >= VALUE "
                         "on every row (for bigger-is-better columns)")
    ap.add_argument("--check-simd-speedup", action="store_true")
    ap.add_argument("--min-speedup", type=float, default=1.5)
    ap.add_argument("--min-n", type=int, default=4096)
    ap.add_argument("--pair-speedup", action="append", default=[],
                    metavar="SLOW:FAST:FACTOR:MIN_N",
                    help="require FAST to beat SLOW by FACTOR within the "
                         "fresh run: gbench matches FAST<level>/n names "
                         "(n >= MIN_N), rows matches series at T >= MIN_N")
    ap.add_argument("--alloc-budget", action="append", default=[],
                    metavar="SERIES=MAX",
                    help="rows kind: require fresh SERIES <= MAX on every "
                         "row (allocation counters)")
    ap.add_argument("--latency-budget", action="append", default=[],
                    metavar="SERIES=MAX",
                    help="rows kind: require fresh SERIES <= MAX on every "
                         "row (absolute latency ceilings, e.g. p99-us)")
    args = ap.parse_args()

    fresh_doc = load(args.fresh)
    base_doc = load(args.baseline)
    if args.tolerance_report:
        check_tolerance_report(accuracy_cases(fresh_doc, args.fresh),
                               accuracy_cases(base_doc, args.baseline),
                               args.fresh, args.baseline)
        print("check_bench: PASS")
        return
    if args.kind is None:
        ap.error("--kind is required unless --tolerance-report is given")
    if args.kind == "gbench":
        fresh = gbench_times(fresh_doc, args.fresh)
        base = gbench_times(base_doc, args.baseline)
        compare(fresh, base, args.factor, "bench")
        if args.check_simd_speedup:
            check_simd_speedup(fresh, args.min_speedup, args.min_n)
        for spec in args.pair_speedup:
            check_pair_speedup(fresh, spec)
    else:
        fresh = rows_values(fresh_doc, args.fresh)
        base = rows_values(base_doc, args.baseline)
        if args.row_series is not None:
            keep = set(args.row_series)
            fresh_cmp = {k: v for k, v in fresh.items() if k[1] in keep}
            base_cmp = {k: v for k, v in base.items() if k[1] in keep}
        else:
            fresh_cmp, base_cmp = fresh, base
        compare(fresh_cmp, base_cmp, args.factor, "row")
        for spec in args.pair_speedup:
            check_rows_pair_speedup(fresh, spec)
        for spec in args.alloc_budget:
            check_alloc_budget(fresh, spec)
        for spec in args.latency_budget:
            check_latency_budget(fresh, spec)
        for spec in args.min_series:
            name, _, value = spec.partition("=")
            floor = float(value)
            found = False
            for (t, s), v in sorted(fresh.items()):
                if s != name:
                    continue
                found = True
                if v < floor:
                    fail(f"series {name} at T={t}: {v:.3g} below the "
                         f"required minimum {floor}")
                print(f"check_bench: ok min-series {name} T={t}: {v:.3g}")
            if not found:
                fail(f"series {name} not present in {args.fresh}")
    print("check_bench: PASS")


if __name__ == "__main__":
    main()
