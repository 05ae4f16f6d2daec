#!/usr/bin/env bash
# Tier-1 CI gate: format, lint, build, test.
#
# Mirrors .github/workflows/ci.yml so the same gate runs locally:
#   ./scripts/ci.sh
#
# The root Cargo.toml sets `default-members` to the whole workspace, so
# the plain tier-1 command `cargo build --release && cargo test -q` also
# builds every bin and runs every crate's tests; the explicit
# `--workspace` flags below say the same thing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> cargo test --doc"
cargo test -q --workspace --doc

echo "==> fault smoke sweep (loss figure under seeded 1% drop+dup)"
ABR_ITERS=20 ABR_JOBS=2 ABR_RECORD_JSON=BENCH_sweep.json \
  ABR_FAULTS="seed=7; drop p=0.01; dup p=0.01" \
  cargo run -q --release -p abr_bench --bin loss_figure

echo "==> traced figure run (Chrome JSON + CPU attribution, reconciled)"
ABR_ITERS=20 ABR_TRACE="chrome=TRACE_events.json,report=TRACE_cpu.txt" \
  cargo run -q --release -p abr_bench --bin trace_figure

echo "==> topology smoke matrix (every tree family end-to-end on the DES)"
for topo in binomial knomial4 chain flat; do
  ABR_TOPO="$topo" ABR_ITERS=5 ABR_JOBS=2 \
    cargo run -q --release -p abr_bench --bin fig6 > "FIG6_$topo.txt"
  echo "    ABR_TOPO=$topo ok"
done
# The binomial schedule must replay the paper's mask-loop tree exactly:
# its fig6 series are pinned byte-for-byte against a committed golden.
diff -u crates/bench/golden/fig6_iters5.txt FIG6_binomial.txt \
  || { echo "ABR_TOPO=binomial diverged from the pre-refactor golden"; exit 1; }

echo "==> skew-vs-topology figure"
ABR_ITERS=20 ABR_JOBS=2 \
  cargo run -q --release -p abr_bench --bin topology_figure > FIG_topology.txt

echo "==> scale smoke (fig_scale capped at 1k ranks + throughput)"
ABR_SCALE_MAX=1024 ABR_ITERS=5 ABR_JOBS=2 \
  cargo run -q --release -p abr_bench --bin scale_figure > FIG_scale.txt
grep -q '"schema": "abr-scale-v2"' BENCH_scale.json \
  || { echo "BENCH_scale.json missing or malformed"; exit 1; }

echo "==> fabric smoke (512-rank oversubscribed fat-tree fig_fabric)"
ABR_SCALE_MAX=512 ABR_ITERS=5 ABR_JOBS=2 \
  cargo run -q --release -p abr_bench --bin fabric_figure > FIG_fabric.txt
grep -q '"schema": "abr-fabric-v1"' BENCH_fabric.json \
  || { echo "BENCH_fabric.json missing or malformed"; exit 1; }

echo "==> contended-fabric golden diffs (routed link model pinned on fat-tree, dragonfly, lossy)"
diff -u crates/bench/golden/fabric_fattree_iters5.txt FIG_fabric.txt \
  || { echo "fattree:4:cyclic fabric figure diverged from its golden"; exit 1; }
ABR_FABRIC=dragonfly ABR_RECORD_JSON=/dev/null ABR_SCALE_MAX=512 ABR_ITERS=5 ABR_JOBS=2 \
  cargo run -q --release -p abr_bench --bin fabric_figure > FIG_fabric_dragonfly.txt
diff -u crates/bench/golden/fabric_dragonfly_iters5.txt FIG_fabric_dragonfly.txt \
  || { echo "dragonfly fabric figure diverged from its golden"; exit 1; }
ABR_FABRIC=fattree:blocked ABR_ITERS=5 ABR_JOBS=2 ABR_RECORD_JSON=/dev/null \
  cargo run -q --release -p abr_bench --bin loss_figure > FIG_loss_fattree.txt
diff -u crates/bench/golden/loss_fattree_blocked_iters5.txt FIG_loss_fattree.txt \
  || { echo "fattree:blocked loss figure diverged from its golden"; exit 1; }

echo "==> flat-fabric golden diff (ABR_FABRIC=flat must reproduce the crossbar figures)"
ABR_FABRIC=flat ABR_TOPO=binomial ABR_ITERS=5 ABR_JOBS=2 \
  cargo run -q --release -p abr_bench --bin fig6 > FIG6_fabric_flat.txt
diff -u crates/bench/golden/fig6_iters5.txt FIG6_fabric_flat.txt \
  || { echo "ABR_FABRIC=flat diverged from the pre-fabric golden"; exit 1; }

echo "==> bandwidth smoke (segmented pipeline + dual-root allreduce, capped at 256 KiB)"
# Smoke runs write beside the committed BENCH_bw.json, never over it.
ABR_MSG_BYTES=262144 ABR_ITERS=5 ABR_JOBS=2 ABR_RECORD_JSON=BENCH_bw_smoke.json \
  cargo run -q --release -p abr_bench --bin bandwidth_figure > FIG_bandwidth_smoke.txt
grep -q '"schema": "abr-bw-v1"' BENCH_bw_smoke.json \
  || { echo "BENCH_bw_smoke.json missing or malformed"; exit 1; }

echo "==> segmentation-off golden diff (ABR_SEGMENTS=1 must not perturb figures)"
ABR_SEGMENTS=1 ABR_TOPO=binomial ABR_ITERS=5 ABR_JOBS=2 \
  cargo run -q --release -p abr_bench --bin fig6 > FIG6_segments_off.txt
diff -u crates/bench/golden/fig6_iters5.txt FIG6_segments_off.txt \
  || { echo "ABR_SEGMENTS=1 diverged from the pre-segmentation golden"; exit 1; }

echo "==> tenant saturation smoke"
# Smoke runs write beside the committed BENCH_tenant.json, never over it.
ABR_TENANT_LOAD=4 ABR_JOBS=2 ABR_RECORD_JSON=BENCH_tenant_smoke.json \
  cargo run -q --release -p abr_bench --bin tenant_figure > FIG_tenant_smoke.txt
grep -q '"schema": "abr-tenant-v1"' BENCH_tenant_smoke.json \
  || { echo "BENCH_tenant_smoke.json missing or malformed"; exit 1; }
grep -q '"widening": true' BENCH_tenant_smoke.json \
  || { echo "BENCH_tenant_smoke.json lost the widening CPU gap"; exit 1; }

echo "==> Fig. 2 time lines from the trace rings (bypass must free node 2)"
cargo run -q --release --example fig2_timeline > /dev/null

echo "==> docs link check (intra-repo links in the teaching docs)"
./scripts/check_links.sh

echo "==> parallel executor determinism (same figure under 2 and 8 shards)"
ABR_DES_SHARDS=2 ABR_SCALE_MAX=1024 ABR_ITERS=5 ABR_JOBS=1 \
  ABR_RECORD_JSON=/dev/null \
  cargo run -q --release -p abr_bench --bin scale_figure > FIG_scale_s2.txt
ABR_DES_SHARDS=8 ABR_SCALE_MAX=1024 ABR_ITERS=5 ABR_JOBS=1 \
  ABR_RECORD_JSON=/dev/null \
  cargo run -q --release -p abr_bench --bin scale_figure > FIG_scale_s8.txt
# Compare only the figure tables: the trailing throughput section reports
# wall-clock timings, which legitimately vary run to run.
sed '/^### hot-path/,$d' FIG_scale_s2.txt > FIG_scale_s2.tables
sed '/^### hot-path/,$d' FIG_scale_s8.txt > FIG_scale_s8.tables
diff -u FIG_scale_s2.tables FIG_scale_s8.tables \
  || { echo "scale figure diverged between 2 and 8 shards"; exit 1; }

echo "CI gate passed."
