#!/usr/bin/env bash
# Required pre-merge gate: the tier-1 build/test cycle, hermetically.
#
#   ./scripts/ci.sh           # fmt check + release build + full test suite
#   ./scripts/ci.sh --bench   # additionally smoke-run the experiment driver
#
# Everything runs with --locked --offline: the workspace has no external
# dependencies (see DESIGN.md, "Hermetic build substrate"), so any attempt
# to reach a registry is a regression this script must catch.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release (locked, offline)"
cargo build --release --locked --offline

echo "==> cargo test -q (locked, offline)"
cargo test -q --locked --offline

echo "==> benchmark unit tests (perfbench, its own workspace)"
cargo test -q --locked --offline --manifest-path perfbench/Cargo.toml

echo "==> kernel dispatch equivalence (EM_KERNEL=scalar vs default)"
# The propcheck suites pin scalar ≡ AVX2 bitwise through the per-backend
# entry points; the two legs below additionally exercise the EM_KERNEL
# override path and the detected-default dispatch in every dispatched
# call site (matrix, stats, sparse, metrics).
EM_KERNEL=scalar cargo test -q -p em-linalg --locked --offline
cargo test -q -p em-linalg --locked --offline

echo "==> obs no-op build (probes compile away with em-obs/noop)"
cargo check -q -p em-bench --features obs-noop --locked --offline

echo "==> trace smoke (exp_t1 --smoke --trace) + schema check"
cargo run --release --locked --offline -p em-bench --bin exp_t1 -- --smoke --trace
python3 - results/TRACE_exp_t1_smoke.json <<'EOF'
import json, sys

trace = json.load(open(sys.argv[1]))
for field in ("name", "spans", "counters", "gauges"):
    assert field in trace, f"missing field {field!r}"
assert trace["spans"], "traced run recorded no spans"
paths = [s["path"] for s in trace["spans"]]
assert paths == sorted(paths), "spans must be sorted by path"
all_paths = set(paths)
for s in trace["spans"]:
    for field in ("path", "depth", "count", "total_ns", "self_ns"):
        assert field in s, f"span missing {field!r}: {s}"
    assert s["count"] > 0, f"zero-count span emitted: {s}"
    assert s["self_ns"] <= s["total_ns"], f"self > total: {s}"
    if s["depth"] > 0:
        # Every child's parent node must appear in the tree too.
        assert any(s["path"].startswith(p + "/") for p in all_paths), \
            f"orphan child span: {s['path']}"
for table in ("counters", "gauges"):
    for entry in trace[table]:
        assert "name" in entry and "value" in entry, f"bad {table} entry: {entry}"
print(f"trace schema ok: {len(trace['spans'])} spans, "
      f"{len(trace['counters'])} counters, {len(trace['gauges'])} gauges")
EOF

# The plain legs below overwrite the stream and serve smoke artifacts,
# so snapshot the committed baselines first for the --bench regression
# gates.
if [[ "${1:-}" == "--bench" ]]; then
    stream_baseline=$(mktemp)
    stream_trace_baseline=$(mktemp)
    cp results/BENCH_stream_smoke.json "$stream_baseline"
    cp results/TRACE_run_stream_smoke.json "$stream_trace_baseline"
    serve_baseline=$(mktemp)
    cp results/BENCH_serve_smoke.json "$serve_baseline"
fi

echo "==> stream smoke (run_stream --smoke --trace) + stage schema check"
cargo run --release --locked --offline -p em-bench --bin run_stream -- --smoke --trace
python3 - results/TRACE_run_stream_smoke.json <<'EOF'
import json, sys

trace = json.load(open(sys.argv[1]))
paths = {s["path"] for s in trace["spans"]}
for stage in ("stream", "stream/block", "stream/block/lsh",
              "stream/match", "stream/explain"):
    assert stage in paths, f"missing pipeline stage span {stage!r}"
counters = {c["name"]: c["value"] for c in trace["counters"]}
for name in ("stream/blocks", "stream/candidates", "stream/matches",
             "ann/signatures"):
    assert counters.get(name, 0) > 0, f"counter {name!r} missing or zero"
# Accounting counters may legitimately read zero at smoke scale, but
# they must be reported.
for name in ("stream/block/skipped_stop_tokens", "stream/block/lsh_blocks",
             "stream/block/lsh_skipped"):
    assert name in counters, f"counter {name!r} missing"
print(f"stream trace ok: {len(paths)} spans, "
      f"{counters['stream/candidates']} candidates, "
      f"{counters['stream/matches']} matches, "
      f"{counters['ann/signatures']} lsh signatures")
EOF

echo "==> serve smoke (load_gen --smoke --trace) + coalescing schema check"
# The bin itself hard-fails unless the session stores prove query
# sharing (hits + coalesced > 0 under concurrent identical pairs); this
# leg additionally checks the serve span tree and its counters.
cargo run --release --locked --offline -p em-bench --bin load_gen -- --smoke --trace
python3 - results/TRACE_serve_smoke.json <<'EOF'
import json, sys

trace = json.load(open(sys.argv[1]))
paths = {s["path"]: s for s in trace["spans"]}
for root in ("serve/accept", "serve/parse", "serve/coalesce", "serve/query"):
    assert root in paths, f"missing serve root span {root!r}"
    assert paths[root]["depth"] == 0, f"{root!r} is not a root span"
    assert paths[root]["count"] > 0, f"{root!r} never fired"
counters = {c["name"]: c["value"] for c in trace["counters"]}
for name in ("serve/requests", "serve/batches", "serve/connections"):
    assert counters.get(name, 0) > 0, f"counter {name!r} missing or zero"
# Reported even when nothing merged in a window; at load_gen's
# clients > pairs ratio something always does.
assert "serve/coalesced" in counters, "counter 'serve/coalesced' missing"
print(f"serve trace ok: {counters['serve/requests']} requests in "
      f"{counters['serve/batches']} batches, "
      f"{counters['serve/coalesced']} coalesced duplicates, "
      f"{counters['serve/connections']} connections")
EOF

# Compare a fresh smoke run against its committed baseline, failing on
# >2x per-entry regressions. Smoke medians are single-shot and noisy; 2x
# catches algorithmic blow-ups (accidental O(n^2), lost cache, lost
# batching) without flaking on scheduler jitter. Entries below MIN_NS are
# reported but not gated: at ms scale a single-shot median is pure noise,
# and under the memoized evaluation substrate per-experiment attribution
# is schedule-dependent anyway (whichever runner goes first pays the
# shared store misses). The run_all/total wall-clock row is what the
# substrate is accountable for, and it always clears the floor.
#
# Optional args 3/4 override the ratio threshold and the ns floor: the
# kernels microbench gates at (3.0, 1e6) because its rows are µs-to-ms
# scale — a 50 ms floor would exempt every row, and at smoke sample
# counts sub-ms medians can legitimately wobble ~2x.
bench_gate() {
    local baseline_json="$1" current_json="$2"
    local threshold="${3:-2.0}" min_ns="${4:-50e6}"
    python3 - "$baseline_json" "$current_json" "$threshold" "$min_ns" <<'EOF'
import json, sys

THRESHOLD = float(sys.argv[3])
MIN_NS = float(sys.argv[4])
base = {(r["group"], r["id"]): r["median_ns"]
        for r in json.load(open(sys.argv[1]))["results"]}
cur = {(r["group"], r["id"]): r["median_ns"]
       for r in json.load(open(sys.argv[2]))["results"]}
failures = []
for key, b_ns in sorted(base.items()):
    c_ns = cur.get(key)
    if c_ns is None:
        failures.append(f"{key[0]}/{key[1]}: missing from current run")
        continue
    ratio = c_ns / b_ns if b_ns > 0 else 1.0
    gated = max(b_ns, c_ns) >= MIN_NS
    flag = " REGRESSION" if gated and ratio > THRESHOLD else \
           ("" if gated else " (below gate floor)")
    print(f"  {key[0]}/{key[1]:<5} {b_ns/1e6:9.1f}ms -> {c_ns/1e6:9.1f}ms"
          f"  {ratio:5.2f}x{flag}")
    if gated and ratio > THRESHOLD:
        failures.append(f"{key[0]}/{key[1]}: {ratio:.2f}x slower")
if failures:
    print("bench regression gate FAILED:", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print("bench regression gate passed")
EOF
}

# On a bench-gate failure, attribute the regression: print the top-5
# per-stage deltas of the fresh trace against the committed trace
# baseline, so "run_all/total regressed 2x" comes with "perturbation
# stage regressed 2x, clustering flat".
trace_deltas() {
    local baseline_json="$1" current_json="$2"
    python3 - "$baseline_json" "$current_json" <<'EOF'
import json, sys

base = {s["path"]: s["total_ns"] for s in json.load(open(sys.argv[1]))["spans"]}
cur = {s["path"]: s["total_ns"] for s in json.load(open(sys.argv[2]))["spans"]}
deltas = []
for path in sorted(set(base) | set(cur)):
    b, c = base.get(path, 0), cur.get(path, 0)
    ratio = c / b if b > 0 else float("inf") if c > 0 else 1.0
    deltas.append((abs(c - b), ratio, path, b, c))
deltas.sort(reverse=True)
print("top stage deltas vs committed trace baseline:", file=sys.stderr)
for _, ratio, path, b, c in deltas[:5]:
    print(f"  {path:<40} {b/1e6:9.1f}ms -> {c/1e6:9.1f}ms  {ratio:5.2f}x",
          file=sys.stderr)
EOF
}

if [[ "${1:-}" == "--bench" ]]; then
    echo "==> bench smoke (run_all --smoke --trace) + regression gate"
    baseline=$(mktemp)
    trace_baseline=$(mktemp)
    cp results/BENCH_run_all_smoke.json "$baseline"
    cp results/TRACE_run_all_smoke.json "$trace_baseline"
    cargo run --release --locked --offline -p em-bench --bin run_all -- --smoke --trace
    # The gate covers the per-experiment rows AND the run_all/total
    # wall-clock row (the memoized-substrate headline number); fail
    # loudly if the driver ever stops emitting the total.
    grep -q '"group": "run_all", "id": "total"' results/BENCH_run_all_smoke.json \
        || { echo "run_all/total row missing from bench JSON" >&2; exit 1; }
    bench_gate "$baseline" results/BENCH_run_all_smoke.json \
        || { trace_deltas "$trace_baseline" results/TRACE_run_all_smoke.json; exit 1; }
    # The perturbation-query stage is the hot path the interned-token /
    # unrolled-kernel work optimises; gate its self-time explicitly so a
    # regression there can't hide inside a flat run_all/total (the
    # memoized substrate spends most of the wall clock elsewhere).
    echo "==> perturb/query self-time gate (vs committed trace baseline)"
    python3 - "$trace_baseline" results/TRACE_run_all_smoke.json <<'EOF'
import json, sys

PATH = "store/explain/perturb/query"

def self_ns(path):
    for s in json.load(open(path))["spans"]:
        if s["path"] == PATH:
            return s["self_ns"], s["count"]
    sys.exit(f"span {PATH!r} missing from {path}")

(b, bc), (c, cc) = self_ns(sys.argv[1]), self_ns(sys.argv[2])
ratio = c / b if b > 0 else 1.0
print(f"  {PATH}: {b/1e6:.1f}ms/{bc} calls -> {c/1e6:.1f}ms/{cc} calls"
      f"  {ratio:5.2f}x")
if ratio > 2.0:
    print(f"perturb/query self-time regressed {ratio:.2f}x", file=sys.stderr)
    sys.exit(1)
print("perturb/query self-time gate passed")
EOF
    rm -f "$baseline" "$trace_baseline"

    echo "==> artifact identity (EM_KERNEL=scalar at a different --jobs)"
    # Every experiment CSV value must be bitwise independent of the SIMD
    # backend and of worker-pool scheduling: snapshot the CSVs from the
    # default-dispatch run above, re-run the suite with the scalar
    # backend at a different job count, and compare each artifact
    # cell-by-cell. Recorded wall-clock columns (`seconds`, `secs/pair`)
    # are excluded — they differ between any two runs of the same
    # binary; every other cell must match to the byte.
    csv_snapshot=$(mktemp -d)
    cp results/*.csv "$csv_snapshot"/
    bench_snapshot=$(mktemp)
    trace_snapshot=$(mktemp)
    cp results/BENCH_run_all_smoke.json "$bench_snapshot"
    cp results/TRACE_run_all_smoke.json "$trace_snapshot"
    EM_KERNEL=scalar cargo run --release --locked --offline -p em-bench \
        --bin run_all -- --smoke --trace --jobs 2
    python3 - "$csv_snapshot" results <<'EOF'
import csv, pathlib, sys

a_dir, b_dir = map(pathlib.Path, sys.argv[1:3])
names = sorted(a_dir.glob("*.csv"))
for fa in names:
    ra = list(csv.reader(open(fa)))
    rb = list(csv.reader(open(b_dir / fa.name)))
    assert ra[0] == rb[0] and len(ra) == len(rb), \
        f"{fa.name}: structure differs under EM_KERNEL=scalar"
    timing = {i for i, h in enumerate(ra[0]) if h == "seconds" or "secs" in h}
    for row, (la, lb) in enumerate(zip(ra[1:], rb[1:]), start=2):
        for i, (ca, cb) in enumerate(zip(la, lb)):
            assert i in timing or ca == cb, \
                (f"{fa.name}:{row} col {ra[0][i]!r}: {ca!r} != {cb!r} "
                 f"under EM_KERNEL=scalar at --jobs 2")
print(f"artifact identity ok: {len(names)} CSVs bitwise equal on value columns")
EOF
    # Restore the default-dispatch smoke timings so the tree reflects
    # the canonical run, not the scalar re-run.
    cp "$bench_snapshot" results/BENCH_run_all_smoke.json
    cp "$trace_snapshot" results/TRACE_run_all_smoke.json
    rm -rf "$csv_snapshot"
    rm -f "$bench_snapshot" "$trace_snapshot"

    echo "==> stream regression gate (vs committed baseline)"
    # Gates the fresh artifacts from the plain stream leg above against
    # the pre-run snapshot of the committed baselines.
    baseline="$stream_baseline"
    trace_baseline="$stream_trace_baseline"
    # The wall-clock total and the memory-discipline row must both be
    # present; the bin additionally hard-fails if the store budget or
    # the RSS cap is exceeded, so this gate is about *regressions*.
    grep -q '"group": "stream", "id": "total"' results/BENCH_stream_smoke.json \
        || { echo "stream/total row missing from bench JSON" >&2; exit 1; }
    grep -q '"group": "stream", "id": "peak_rss_bytes"' results/BENCH_stream_smoke.json \
        || { echo "stream/peak_rss_bytes row missing from bench JSON" >&2; exit 1; }
    bench_gate "$baseline" results/BENCH_stream_smoke.json \
        || { trace_deltas "$trace_baseline" results/TRACE_run_stream_smoke.json; exit 1; }
    # peak_rss_bytes sits below bench_gate's ns floor at smoke scale, so
    # gate it explicitly: 2x + 32 MiB slack flags a lost memory bound
    # (store budget ignored, digests ballooning) without flaking on
    # allocator arena noise at a ~10 MB baseline.
    python3 - "$baseline" results/BENCH_stream_smoke.json <<'EOF'
import json, sys

def rss(path):
    for r in json.load(open(path))["results"]:
        if (r["group"], r["id"]) == ("stream", "peak_rss_bytes"):
            return r["median_ns"]
    sys.exit(f"stream/peak_rss_bytes missing from {path}")

b, c = rss(sys.argv[1]), rss(sys.argv[2])
if c > 2.0 * b + (32 << 20):
    print(f"peak RSS regressed: {b/1e6:.1f}MB -> {c/1e6:.1f}MB", file=sys.stderr)
    sys.exit(1)
print(f"peak RSS gate ok: {b/1e6:.1f}MB -> {c/1e6:.1f}MB")
EOF
    rm -f "$baseline" "$trace_baseline"

    echo "==> serve regression gate (vs committed baseline)"
    # Gates the fresh artifacts from the plain serve leg above against
    # the pre-run snapshot of the committed baseline. Latency rows are
    # ms-scale single-shot percentiles — gate like the kernels bench.
    for row in explain_p99 predict_p99 ns_per_request shared_queries; do
        grep -q "\"group\": \"serve\", \"id\": \"$row\"" results/BENCH_serve_smoke.json \
            || { echo "serve/$row row missing from bench JSON" >&2; exit 1; }
    done
    bench_gate "$serve_baseline" results/BENCH_serve_smoke.json 3.0 1e6
    rm -f "$serve_baseline"

    echo "==> bench smoke (embed --smoke) + regression gate"
    baseline=$(mktemp)
    cp results/BENCH_embed_smoke.json "$baseline"
    cargo bench --locked --offline -p em-bench --bench embed -- --smoke
    bench_gate "$baseline" results/BENCH_embed_smoke.json
    rm -f "$baseline"

    echo "==> bench smoke (kernels --smoke) + regression gate"
    baseline=$(mktemp)
    cp results/BENCH_kernels_smoke.json "$baseline"
    cargo bench --locked --offline -p em-bench --bench kernels -- --smoke
    bench_gate "$baseline" results/BENCH_kernels_smoke.json 3.0 1e6
    rm -f "$baseline"

    echo "==> bench smoke (ann --smoke) + regression gate"
    # The ann bench aborts itself if the benchmarked index drops below
    # 0.95 recall against exact top-k, so this leg also gates quality.
    # Rows are ms-scale at smoke sizes — gate like the kernels bench.
    baseline=$(mktemp)
    cp results/BENCH_ann_smoke.json "$baseline"
    cargo bench --locked --offline -p em-bench --bench ann -- --smoke
    bench_gate "$baseline" results/BENCH_ann_smoke.json 3.0 1e6
    rm -f "$baseline"
fi

echo "==> ci green"
