#!/usr/bin/env sh
# Tier-1 gate: formatting, lints, and every workspace test suite.
# Run from the repository root. Fails fast on the first broken step.
set -eu

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc --workspace (rustdoc warnings, broken intra-doc links included, are errors)"
# The vendored stand-ins are not ours to document.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --exclude proptest --exclude rand

echo "== cargo test --workspace (tier-1 plus every crate's own suites)"
# A bare `cargo test` at the root tests only the `xvc` facade package; the
# crate unit tests and crates/*/tests suites run only with --workspace.
cargo test -q --workspace

echo "== xvc check (examples must be error-free)"
cargo build --release --quiet --bin xvc
./target/release/xvc check \
    examples/files/guide.view examples/files/guide.xsl examples/files/schema.sql
./target/release/xvc check \
    examples/files/paper/figure1.view examples/files/paper/figure4.xsl \
    examples/files/paper/figure2.sql

echo "== perfbench builds against this tree"
# The benchmark is a standalone package that links the library crates by
# path; a library API change that breaks it fails here rather than in the
# benchmark run. --locked keeps perfbench/Cargo.lock as committed.
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml --target-dir target

echo "== xvc check --json (machine-readable gate, exits 1 on error-level codes)"
./target/release/xvc check --json \
    examples/files/guide.view examples/files/guide.xsl examples/files/schema.sql
./target/release/xvc check --json \
    examples/files/paper/figure1.view examples/files/paper/figure4.xsl \
    examples/files/paper/figure2.sql

echo "== figures -- batch (prepared-plan + set-oriented benchmark gates)"
# The binary verifies v'(I) = x(v(I)) before timing, aborts on a warm
# publish that misses the plan cache, and aborts unless the depth-5 chain
# runs the same number of batches at fan-out 2 and 4 (one per level) with
# a largest batch that grows with the fan-out. The greps double-check the
# written artifact.
cargo run --release --quiet -p xvc-bench --bin figures -- batch
if grep -q '"plan_cache_hit_rate": 0\.000' BENCH_compose.json; then
    echo "ci.sh: plan cache never hit (see BENCH_compose.json)" >&2
    exit 1
fi
if ! grep -q 'fan-out 4 (batch study)", .*"bindings_per_batch_max"' BENCH_compose.json; then
    echo "ci.sh: batch study missing from BENCH_compose.json" >&2
    exit 1
fi

echo "== figures -- fuzz (recursion-heavy / wide-fanout differential gate)"
# Runs the two stress generator presets differentially: v'(I) must equal
# x(v(I)), the bound-driven publisher must match the heuristic path
# byte-for-byte, and measured batch sizes must stay within the static
# cardinality bounds. The binary aborts on any divergence.
cargo run --release --quiet -p xvc-bench --bin figures -- fuzz

echo "== figures -- scale smoke (storage/access-path gates, reduced sizes)"
# The binary publishes the needle view against the in-memory, paged, and
# indexed backends, aborts if any document diverges from the in-memory
# reference, and aborts if the index path is slower than the full scan (or
# scans as many rows) at the largest smoke size. The greps double-check
# the written artifact.
cargo run --release --quiet -p xvc-bench --bin figures -- scale smoke
if ! grep -q '"eval_indexed_ms"' BENCH_compose.json; then
    echo "ci.sh: scale study missing from BENCH_compose.json" >&2
    exit 1
fi
if ! grep -q '"eval_paged_ms"' BENCH_compose.json; then
    echo "ci.sh: paged backend missing from the scale study" >&2
    exit 1
fi
if grep -q '"index_lookups": 0' BENCH_compose.json; then
    echo "ci.sh: scale study never probed an index (see BENCH_compose.json)" >&2
    exit 1
fi

echo "== figures -- incr smoke (delta-publish gates, reduced sizes)"
# The binary inserts one row through the xvc_rel write path and absorbs
# the delta via Session::republish_delta, aborting if the delta document
# diverges from a full republish, if the re-executed batch count grows
# with instance size, or if the delta path re-runs >= 20% of the full
# batch count at the largest size. The greps double-check the artifact.
cargo run --release --quiet -p xvc-bench --bin figures -- incr smoke
if ! grep -q '"eval_full_republish_ms"' BENCH_compose.json; then
    echo "ci.sh: incremental study missing from BENCH_compose.json" >&2
    exit 1
fi
if ! grep -q '"eval_delta_ms"' BENCH_compose.json; then
    echo "ci.sh: delta timings missing from the incremental study" >&2
    exit 1
fi
if grep -q '"batches_delta": 0' BENCH_compose.json; then
    echo "ci.sh: delta path never re-executed a batch (see BENCH_compose.json)" >&2
    exit 1
fi

echo "== figures -- stream smoke (streamed-emission gates, reduced sizes)"
# The binary publishes the same instances by materialize-then-serialize
# and by Session::publish_to, aborting on any byte divergence, on streamed
# emission >25% slower than materialized at the largest size (both
# timings share the dominant relational term, so the gate carries its
# noise), on a streamed peak-allocation track that grows with document
# size (it must stay within 2x across the 10x sweep), or on streamed rows
# scanned growing faster than the database. The greps double-check the
# written artifact.
cargo run --release --quiet -p xvc-bench --bin figures -- stream smoke
if ! grep -q '"emit_streamed_ms"' BENCH_compose.json; then
    echo "ci.sh: stream study missing from BENCH_compose.json" >&2
    exit 1
fi
if ! grep -q '"emit_materialized_ms"' BENCH_compose.json; then
    echo "ci.sh: materialized timings missing from the stream study" >&2
    exit 1
fi
if grep -q '"peak_track_bytes_streamed": 0' BENCH_compose.json; then
    echo "ci.sh: stream study tracked no emission allocations" >&2
    exit 1
fi
if ! grep -q '"rows_scanned_streamed"' BENCH_compose.json; then
    echo "ci.sh: rows-scanned counters missing from the stream study" >&2
    exit 1
fi

echo "== xvc serve smoke (concurrent publishing server + load driver)"
# Start the server on an ephemeral-ish port, generate the single-process
# reference document with `xvc run`, then drive 4 concurrent clients for
# ~2s. serve_load exits nonzero on any error or response that diverges
# from the reference, and the greps double-check the written artifact.
mkdir -p artifacts
SERVE_ADDR=127.0.0.1:7171
./target/release/xvc run \
    --view examples/files/guide.view --xslt examples/files/guide.xsl \
    --ddl examples/files/schema.sql --data examples/files/data \
    2>/dev/null > artifacts/serve_expected.xml
cargo build --release --quiet -p xvc-bench --bin serve_load
./target/release/xvc serve \
    --view examples/files/guide.view --xslt examples/files/guide.xsl \
    --ddl examples/files/schema.sql --data examples/files/data \
    --addr "$SERVE_ADDR" --threads 4 2>/dev/null &
SERVE_PID=$!
serve_cleanup() {
    kill "$SERVE_PID" 2>/dev/null || true
}
trap serve_cleanup EXIT
if ! ./target/release/serve_load \
    --addr "$SERVE_ADDR" --clients 4 --seconds 2 \
    --expected artifacts/serve_expected.xml --out BENCH_serve.json; then
    echo "ci.sh: serve load run failed (errors or divergent responses)" >&2
    exit 1
fi
# GET /publish streams chunked; an independent client (python's stdlib
# decoder, not the serve_load one) must see Transfer-Encoding: chunked and
# decode to exactly the single-process `xvc run` document.
python3 - "$SERVE_ADDR" <<'PYEOF'
import http.client, sys
host, port = sys.argv[1].rsplit(":", 1)
conn = http.client.HTTPConnection(host, int(port), timeout=30)
conn.request("GET", "/publish")
resp = conn.getresponse()
assert resp.status == 200, f"/publish returned {resp.status}"
te = resp.getheader("Transfer-Encoding")
assert te == "chunked", f"/publish is not chunked (Transfer-Encoding: {te})"
ct = resp.getheader("Content-Type")
assert ct == "application/xml; charset=utf-8", f"bad Content-Type: {ct}"
body = resp.read().decode("utf-8")
with open("artifacts/serve_expected.xml", encoding="utf-8") as f:
    expected = f.read()
assert body.strip() == expected.strip(), \
    "chunked /publish decoded differently from the xvc run reference"
print("chunked /publish byte-identical to the xvc run reference")
PYEOF
for key in throughput_rps p50_ms p99_ms; do
    if ! grep -q "\"$key\"" BENCH_serve.json; then
        echo "ci.sh: $key missing from BENCH_serve.json" >&2
        exit 1
    fi
done
if ! grep -q '"errors": 0' BENCH_serve.json; then
    echo "ci.sh: serve load reported errors (see BENCH_serve.json)" >&2
    exit 1
fi
if ! grep -q '"divergent": 0' BENCH_serve.json; then
    echo "ci.sh: served documents diverged (see BENCH_serve.json)" >&2
    exit 1
fi
if ! grep -q '"warm_plan_cache_hit_rate": 1\.0' BENCH_serve.json; then
    echo "ci.sh: warm plan cache hit rate under load is not 1.0" >&2
    exit 1
fi
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
trap - EXIT

echo "ci.sh: all green"
