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

echo "== examples run (each asserts its own results, v'(I) = x(v(I)) included)"
# cargo test only compiles examples/*.rs; running them executes their
# asserts. A non-zero exit fails the script.
for example in quickstart conference_planning html_report order_invoices recursive_pushdown; do
    echo "-- example $example"
    cargo run --release --quiet --example "$example" > /dev/null
done

echo "== figures -- figures (the paper's figures, byte for byte)"
# Regenerates the composed SQL and documents of the paper's figures
# (7(a), 7(c), 16, 20, 26, ...) and fails on any difference from the
# committed artifact, so a change to UNBIND/NEST, the query rewrites or
# the SQL printer that moves a figure fails here.
cargo run --release --quiet -p xvc-bench --bin figures -- figures |
    diff -u artifacts/paper_figures.txt -

echo "== xvc tool reports (compose, explain, stats, deps, check, run), byte for byte"
# Regenerates the CLI's reports on the guide and on Figure 1 x Figure 4
# and fails on any difference from the committed artifact, so a change
# that moves a composed query, a plan, a bound, a lineage edge or a
# diagnostic fails here. Relative paths: `check` prints them as given.
tool_reports() {
    guide="--view examples/files/guide.view --xslt examples/files/guide.xsl --ddl examples/files/schema.sql"
    paper="--view examples/files/paper/figure1.view --xslt examples/files/paper/figure4.xsl --ddl examples/files/paper/figure2.sql"
    for files in "$guide" "$paper"; do
        for command in "compose" "compose --optimize --prune" "compose --rewrites" \
            "explain" "explain --prune --optimize" "stats" "deps" "deps --json"; do
            echo "== xvc $command $files"
            # shellcheck disable=SC2086
            ./target/release/xvc $command $files 2>&1
        done
    done
    for files in "examples/files/guide.view examples/files/guide.xsl examples/files/schema.sql" \
        "examples/files/paper/figure1.view examples/files/paper/figure4.xsl examples/files/paper/figure2.sql"; do
        for command in "check" "check --json"; do
            echo "== xvc $command $files"
            # shellcheck disable=SC2086
            ./target/release/xvc $command $files 2>&1
        done
    done
    # `xvc run` checks v'(I) = x(v(I)) itself, so running it under every
    # composition option executes the pruned, optimized and rewritten
    # compositions too.
    for command in "run" "stats" "run --prune --optimize" "run --rewrites"; do
        echo "== xvc $command $guide --data examples/files/data"
        # shellcheck disable=SC2086
        ./target/release/xvc $command $guide --data examples/files/data 2>&1
    done
}
tool_reports | diff -u artifacts/tool_reports.txt -

echo "== perfbench builds against this tree"
# The benchmark is a standalone package that links the library crates by
# path; a library API change that breaks it fails here rather than in the
# benchmark run. --locked keeps perfbench/Cargo.lock as committed.
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml --target-dir target

echo "== perfbench's own tests (its generated DDL and CSVs load through the CLI loaders)"
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml --target-dir target

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
# x(v(I)), measured batch sizes and published element counts must stay
# within the static cardinality bounds (batch and document), and the
# corpora must exercise a multi-binding batch and a finite document
# bound. The binary aborts on any divergence.
cargo run --release --quiet -p xvc-bench --bin figures -- fuzz

echo "== figures -- scale smoke (access-path gates, reduced sizes)"
# The binary publishes the needle view with full scans and with secondary
# indexes, aborts if the indexed document diverges from the full-scan
# one, and aborts if the index path is slower than the full scan (or
# scans as many rows) at the largest smoke size. The greps double-check
# the written artifact.
cargo run --release --quiet -p xvc-bench --bin figures -- scale smoke
if ! grep -q '"eval_indexed_ms"' BENCH_compose.json; then
    echo "ci.sh: scale study missing from BENCH_compose.json" >&2
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
# Writes through POST /dml: an INSERT shows in /doc, which must equal the
# decoded /publish; the DELETE that undoes it brings /doc, /publish and the
# `xvc run` reference back together; a DELETE with a GROUP BY after its
# predicate is a 400 that leaves /doc as it was.
python3 - "$SERVE_ADDR" <<'PYEOF'
import http.client, sys
host, port = sys.argv[1].rsplit(":", 1)
def call(method, path, body=None):
    conn = http.client.HTTPConnection(host, int(port), timeout=30)
    conn.request(method, path, body=body)
    resp = conn.getresponse()
    data = resp.read().decode("utf-8")
    conn.close()
    return resp.status, data
def get(path):
    status, body = call("GET", path)
    assert status == 200, f"{path} returned {status}"
    return body
with open("artifacts/serve_expected.xml", encoding="utf-8") as f:
    expected = f.read()
status, body = call("POST", "/dml", "INSERT INTO sight VALUES (99, 1, 'probe', 0)")
assert status == 200, f"INSERT returned {status}: {body}"
doc = get("/doc")
assert "probe" in doc, "/doc does not show the inserted row"
assert doc == get("/publish"), "/doc differs from /publish after INSERT"
status, body = call("POST", "/dml", "DELETE FROM sight WHERE sid = 99")
assert status == 200, f"DELETE returned {status}: {body}"
doc = get("/doc")
assert doc == get("/publish"), "/doc differs from /publish after DELETE"
assert doc.strip() == expected.strip(), "/doc differs from the xvc run reference after DELETE"
status, body = call("POST", "/dml", "DELETE FROM sight WHERE sid = 99 GROUP BY sid")
assert status == 400, f"DELETE ... GROUP BY returned {status}: {body}"
assert get("/doc") == doc, "a rejected DELETE changed /doc"
print("/dml INSERT, DELETE and a rejected DELETE keep /doc, /publish and the reference equal")
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
