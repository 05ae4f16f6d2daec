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

echo "==> perfbench tests (the benchmark package calls into the workspace crates)"
cargo test -q --release --manifest-path perfbench/Cargo.toml

echo "==> fault smoke sweep (loss figure under seeded 1% drop+dup)"
ABR_ITERS=20 ABR_JOBS=2 ABR_RECORD_JSON=BENCH_sweep.json \
  ABR_FAULTS="seed=7; drop p=0.01; dup p=0.01" \
  cargo run -q --release -p abr_bench --bin loss_figure > FIG_loss_flat_faults.txt
# The only CI run of the reliability layer on the crossbar: pin its table.
diff -u crates/bench/golden/loss_flat_faults_iters20.txt FIG_loss_flat_faults.txt \
  || { echo "flat-fabric fault smoke diverged from its golden"; exit 1; }

echo "==> traced figure run (Chrome JSON + CPU attribution, reconciled)"
ABR_ITERS=20 ABR_TRACE="chrome=TRACE_events.json,report=TRACE_cpu.txt" \
  cargo run -q --release -p abr_bench --bin trace_figure
# The only CI run of the tracer path: pin its per-rank CPU attribution.
diff -u crates/bench/golden/trace_cpu_iters20.txt TRACE_cpu.txt \
  || { echo "traced run's CPU report diverged from its golden"; exit 1; }

echo "==> topology smoke matrix (every tree family end-to-end on the DES)"
for topo in binomial knomial4 chain flat; do
  ABR_TOPO="$topo" ABR_ITERS=5 ABR_JOBS=2 ABR_RECORD_JSON=/dev/null \
    cargo run -q --release -p abr_bench --bin all_figures > "FIG_all_$topo.txt"
  echo "    ABR_TOPO=$topo ok"
done
# The binomial schedule must replay the paper's mask-loop tree exactly:
# every figure is pinned byte-for-byte against the committed golden.
diff -u crates/bench/golden/all_figures_iters5.txt FIG_all_binomial.txt \
  || { echo "ABR_TOPO=binomial diverged from the all-figures golden"; exit 1; }

echo "==> all-figures golden diff (Figs. 6-10 and every ablation pinned at 5 iterations)"
ABR_ITERS=5 ABR_JOBS=2 ABR_RECORD_JSON=/dev/null \
  cargo run -q --release -p abr_bench --bin all_figures > FIG_all_iters5.txt
diff -u crates/bench/golden/all_figures_iters5.txt FIG_all_iters5.txt \
  || { echo "all_figures diverged from its golden"; exit 1; }

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
ABR_FABRIC=flat ABR_TOPO=binomial ABR_ITERS=5 ABR_JOBS=2 ABR_RECORD_JSON=/dev/null \
  cargo run -q --release -p abr_bench --bin all_figures > FIG_all_fabric_flat.txt
diff -u crates/bench/golden/all_figures_iters5.txt FIG_all_fabric_flat.txt \
  || { echo "ABR_FABRIC=flat diverged from the all-figures golden"; exit 1; }

echo "==> bandwidth smoke (segmented pipeline + dual-root allreduce, capped at 1 MiB)"
# Smoke runs write beside the committed BENCH_bw.json, never over it.
ABR_MSG_BYTES=1048576 ABR_ITERS=5 ABR_JOBS=2 ABR_RECORD_JSON=BENCH_bw_smoke.json \
  cargo run -q --release -p abr_bench --bin bandwidth_figure > FIG_bandwidth_smoke.txt
grep -q '"schema": "abr-bw-v1"' BENCH_bw_smoke.json \
  || { echo "BENCH_bw_smoke.json missing or malformed"; exit 1; }
# The smoke is the only CI run of the segmented and dual-root pipelines,
# and the 1 MiB row is the only one whose unexpected queues grow past the
# match queue's linear-scan limit: pin its tables byte-for-byte.
diff -u crates/bench/golden/bandwidth_1m_iters5.txt FIG_bandwidth_smoke.txt \
  || { echo "bandwidth smoke diverged from its golden"; exit 1; }

echo "==> segmentation-off golden diff (ABR_SEGMENTS=1 must not perturb figures)"
ABR_SEGMENTS=1 ABR_TOPO=binomial ABR_ITERS=5 ABR_JOBS=2 ABR_RECORD_JSON=/dev/null \
  cargo run -q --release -p abr_bench --bin all_figures > FIG_all_segments_off.txt
diff -u crates/bench/golden/all_figures_iters5.txt FIG_all_segments_off.txt \
  || { echo "ABR_SEGMENTS=1 diverged from the all-figures golden"; exit 1; }

echo "==> tenant saturation smoke"
# Smoke runs write beside the committed BENCH_tenant.json, never over it.
ABR_TENANT_LOAD=4 ABR_JOBS=2 ABR_RECORD_JSON=BENCH_tenant_smoke.json \
  cargo run -q --release -p abr_bench --bin tenant_figure > FIG_tenant_smoke.txt
grep -q '"schema": "abr-tenant-v1"' BENCH_tenant_smoke.json \
  || { echo "BENCH_tenant_smoke.json missing or malformed"; exit 1; }
grep -q '"widening": true' BENCH_tenant_smoke.json \
  || { echo "BENCH_tenant_smoke.json lost the widening CPU gap"; exit 1; }
# The full saturation ladder must reproduce the committed figure.
ABR_RECORD_JSON=/dev/null \
  cargo run -q --release -p abr_bench --bin tenant_figure > FIG_tenant_check.txt
diff -u FIG_tenant.txt FIG_tenant_check.txt \
  || { echo "tenant figure diverged from the committed FIG_tenant.txt"; exit 1; }

echo "==> Fig. 2 time lines from the trace rings (bypass must free node 2)"
cargo run -q --release --example fig2_timeline > /dev/null

echo "==> live-runtime smoke (README quickstart and the only allgather caller; both assert results)"
cargo run -q --release --example quickstart > /dev/null
cargo run -q --release --example power_iteration > /dev/null

echo "==> docs link check (intra-repo links in the teaching docs)"
./scripts/check_links.sh

echo "==> sharded executor determinism (same figures under 1, 2 and 8 shards)"
ABR_DES_SHARDS=2 ABR_SCALE_MAX=1024 ABR_ITERS=5 ABR_JOBS=1 \
  ABR_RECORD_JSON=/dev/null \
  cargo run -q --release -p abr_bench --bin scale_figure > FIG_scale_s2.txt
ABR_DES_SHARDS=8 ABR_SCALE_MAX=1024 ABR_ITERS=5 ABR_JOBS=1 \
  ABR_RECORD_JSON=/dev/null \
  cargo run -q --release -p abr_bench --bin scale_figure > FIG_scale_s8.txt
# Compare only the figure tables: the trailing throughput section reports
# wall-clock timings, which legitimately vary run to run.
sed '/^### hot-path/,$d' FIG_scale.txt > FIG_scale.tables
sed '/^### hot-path/,$d' FIG_scale_s2.txt > FIG_scale_s2.tables
sed '/^### hot-path/,$d' FIG_scale_s8.txt > FIG_scale_s8.tables
diff -u FIG_scale.tables FIG_scale_s2.tables \
  || { echo "scale figure diverged between one shard and 2 shards"; exit 1; }
diff -u FIG_scale_s2.tables FIG_scale_s8.tables \
  || { echo "scale figure diverged between 2 and 8 shards"; exit 1; }
# The dual-root columns order many same-instant sends by tie-break key.
ABR_DES_SHARDS=2 ABR_MSG_BYTES=1048576 ABR_ITERS=5 ABR_JOBS=2 ABR_RECORD_JSON=/dev/null \
  cargo run -q --release -p abr_bench --bin bandwidth_figure > FIG_bandwidth_smoke_s2.txt
diff -u FIG_bandwidth_smoke.txt FIG_bandwidth_smoke_s2.txt \
  || { echo "bandwidth figure diverged between one shard and 2 shards"; exit 1; }

echo "CI gate passed."
