#!/usr/bin/env python3
"""Summarise one set of benchmark results, or compare two.

    python3 perfbench/compare.py A [B]

A and B are result sets: a directory of <workload>.jsonl files as
perfbench/run.py writes them (.bench_results), or one .jsonl file.

With one set, prints per workload the median and quartiles of every
end-to-end metric, its spread (quartile distance over median) against
the bound in BENCHMARK.json, and the median of every per-layer metric.

With two, prints for each workload and metric both medians with their
quartiles and the change from A to B, judged against the bound:
"worse" past the bound, "unresolved" where either set's own spread is
wider than the bound, else "ok". Per-layer metrics get their median
change, the predicted interactions (interactions.json) show whether the
layer metric and its end-to-end metric moved together, and every seed
run in both sets must give the same sim.fingerprint: a mismatch is
listed cell by cell. Exits 1 on a fingerprint mismatch or a metric
worse than its bound.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_set(path):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".jsonl")]
             if os.path.isdir(path) else [path])
    records = []
    for f in files:
        with open(f) as fh:
            records += [json.loads(line) for line in fh if line.strip()]
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def values(records, workload, trace, name):
    return [r["metrics"][name] for r in records
            if r["workload"] == workload and r["trace"] == trace and name in r["metrics"]]


def fmt(v):
    return f"{v:.6g}"


def summarise(bench, records):
    for w in bench["workloads"]:
        name = w["name"]
        print(f"== {name}")
        for m in bench["end_to_end"]:
            v = values(records, name, 0, m["name"])
            if not v:
                continue
            q1, med, q3 = quartiles(v)
            s = spread(v)
            flag = "OVER BOUND" if s > m["bound"] else "noisy" if s > m["bound"] / 3 else "steady"
            print(f"  {m['name']:22s} n={len(v):2d} median {fmt(med):>10s} {m['unit']:6s} "
                  f"[{fmt(q1)}, {fmt(q3)}] spread {s:6.1%} bound {m['bound']:.0%} {flag}")
        for m in bench["per_layer"]:
            v = values(records, name, 1, m["name"])
            if v:
                print(f"  {m['name']:36s} median {fmt(statistics.median(v)):>12s} {m['unit']}")
        by_seed = {}
        for r in records:
            if r["workload"] == name:
                by_seed.setdefault(r["seed"], set()).add(r["fingerprint"])
        for seed, fps in sorted(by_seed.items()):
            if len(fps) > 1:
                print(f"  FINGERPRINT MISMATCH within the set, seed {seed}: {sorted(fps)}")


def worse_by(m, a, b):
    """Share by which b is worse than a (negative when better)."""
    if a == 0:
        return 0.0
    d = (b - a) / abs(a)
    return d if m["better"] == "lower" else -d


def compare(bench, ra, rb):
    bad = False
    medians = {}
    for w in bench["workloads"]:
        name = w["name"]
        print(f"== {name}")
        for m in bench["end_to_end"]:
            va, vb = values(ra, name, 0, m["name"]), values(rb, name, 0, m["name"])
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            d = worse_by(m, qa[1], qb[1])
            medians[(name, m["name"])] = d
            if max(spread(va), spread(vb)) > m["bound"]:
                verdict = "unresolved"
            elif d > m["bound"]:
                verdict, bad = "WORSE", True
            else:
                verdict = "ok"
            print(f"  {m['name']:22s} A {fmt(qa[1]):>10s} [{fmt(qa[0])}, {fmt(qa[2])}]  "
                  f"B {fmt(qb[1]):>10s} [{fmt(qb[0])}, {fmt(qb[2])}] {m['unit']:6s} "
                  f"worse by {d:+7.1%} (bound {m['bound']:.0%}) {verdict}")
        for m in bench["per_layer"]:
            va, vb = values(ra, name, 1, m["name"]), values(rb, name, 1, m["name"])
            if not va or not vb:
                continue
            a, b = statistics.median(va), statistics.median(vb)
            d = (b - a) / abs(a) if a else 0.0
            medians[(name, m["name"])] = d
            mark = "" if a == b else f" {d:+7.1%}"
            print(f"  {m['name']:36s} A {fmt(a):>12s}  B {fmt(b):>12s} {m['unit']}{mark}")
        fa = {r["seed"]: r for r in ra if r["workload"] == name}
        fb = {r["seed"]: r for r in rb if r["workload"] == name}
        for seed in sorted(set(fa) & set(fb)):
            if fa[seed]["fingerprint"] == fb[seed]["fingerprint"]:
                continue
            bad = True
            print(f"  FINGERPRINT MISMATCH seed {seed}: A {fa[seed]['fingerprint']} "
                  f"B {fb[seed]['fingerprint']}")
            ca, cb = fa[seed]["cell_results"], fb[seed]["cell_results"]
            for cell in sorted(set(ca) | set(cb)):
                x = ca.get(cell, {}).get("fingerprint")
                y = cb.get(cell, {}).get("fingerprint")
                if x != y:
                    print(f"    {cell}: A {x} B {y}")
    with open(os.path.join(HERE, "interactions.json")) as f:
        interactions = json.load(f)
    print("== predicted interactions (change A -> B; end-to-end as 'worse by')")
    for i in interactions:
        lay = medians.get((i["workload"], i["layer"]))
        e2e = medians.get((i["workload"], i["end_to_end"]))
        if lay is None or e2e is None:
            continue
        print(f"  {i['workload']:10s} {i['layer']:26s} {lay:+7.1%} -> {i['end_to_end']:16s} "
              f"{e2e:+7.1%}  expected: {i['expect']}")
    return bad


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    for p in sys.argv[1:]:
        if not os.path.exists(p):
            print(f"compare.py: no such result set: {p}", file=sys.stderr)
            sys.exit(2)
    sets = [load_set(p) for p in sys.argv[1:]]
    if len(sets) == 1:
        summarise(bench, sets[0])
    elif compare(bench, *sets):
        sys.exit(1)


if __name__ == "__main__":
    main()
