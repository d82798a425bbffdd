#!/bin/sh
# CI gate for the Serval reproduction. Everything runs with --offline:
# the workspace has zero external dependencies (see crates/check for the
# from-scratch proptest/rand replacement), and this script is
# the proof that resolution never reaches for a registry.
set -eu

echo "== build (release, offline) =="
cargo build --release --offline

# Configurations are values, so "the same suite under one flipped knob"
# is a loop inside tests/config_matrix.rs (part of this run), not a
# rerun of the suites under an environment variable. Also part of this
# run: tests/alloc_budget.rs, a binary of its own with a counting global
# allocator, which fails if a certified session goes back to the heap
# once per proof step (what made two workers serialise on malloc); and
# tests/workspace.rs's discharge_path_functions_stay_small, which fails
# if a function of the engine's staged discharge path (the keyer's
# included) outgrows 120 lines, and design_lists_every_buggify_point,
# which fails if the buggify points planted under crates/*/src and
# DESIGN.md's hand-kept list disagree.
echo "== tests (whole workspace, offline; incl. config_matrix, alloc_budget) =="
cargo test -q --workspace --offline

# The one decoder of a query's wire bytes faces TCP, so its properties
# (k-goal round trips, truncation, bit flips, re-pointed variable nodes
# and raw garbage) also run at 100 000 cases each, under a fixed seed
# other than the suite's default.
echo "== decoder fuzz (serval-net, 100 000 cases per property) =="
SERVAL_CHECK_CASES=100000 SERVAL_CHECK_SEED=41 \
  cargo test -q --offline -p serval-net --lib -- prop_core_ prop_garbage_never_panics

# The certificate checker walks hints and has no search to fall back
# on, so a solver path that logs a derivation without its hints, or a
# resolvent twice, is a rejected certificate. drat's suite (the
# incremental-session soak against brute force, the proof-mutation
# tests and the inprocessed-replay property) runs here at ten times
# the soak's 400 sessions.
echo "== certificate soak (serval-drat, 4 000 sessions) =="
SERVAL_CHECK_CASES=4000 cargo test -q --offline -p serval-drat --lib

# Chronological backtracking keeps out-of-order literals on the trail,
# which plain CDCL never does: the padded brute-force tests, whose
# conflicts ask for backjumps past the cut (mid-depth and deep, plain
# and under assumptions), run here at ten times their 200 instances.
echo "== chronological backtracking soak (serval-sat, 2 000 instances) =="
SERVAL_CHECK_CASES=2000 cargo test -q --offline -p serval-sat --lib

# Broken intra-doc links fail the build: a doc comment that names an
# item deleted or renamed since must be fixed with the code.
echo "== docs (broken intra-doc links are errors) =="
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" \
  cargo doc --no-deps --offline --workspace --document-private-items

# The benchmark package builds its configurations as struct literals and
# imports product items by name: this leg proves they still compile and
# that the smoke workloads still agree with benchmark/expected/.
echo "== tests (benchmark package, offline) =="
cargo test -q --offline --manifest-path benchmark/Cargo.toml

# Deterministic simulation: the pinned regression-seed corpus runs as
# part of the workspace tests above; this block additionally sweeps
# fresh hostile schedules (seeded scheduler + buggify + IO faults). Any
# failure prints the offending seed and the replay command, and the
# sweep exits nonzero.
echo "== deterministic simulation (500-seed hostile sweep) =="
SERVAL_BUGGIFY=1 SERVAL_SIM_SWEEP=500 \
  cargo run --release --offline -p serval-sim --bin sim_sweep

# Verification service: start servald on an ephemeral loopback port,
# then discharge the whole certikos -O1 refinement through serval-cli
# and compare against an in-process run. `parity` exits nonzero on any
# verdict mismatch or if fewer than 2 shards did work. It runs twice
# against the same server: the second run is warm, so its repeats are
# answered at admission over real TCP and still checked against the
# in-process verdicts. The net_batch
# scenario is already covered by the hostile sweep above. The root build
# at the top builds only the root package, so the two binaries are built
# here.
echo "== verification service (loopback smoke) =="
cargo build --release --offline -p serval-net --bins
rm -f target/servald.addr
./target/release/servald --addr 127.0.0.1:0 --addr-file target/servald.addr --shards 2 &
SERVALD_PID=$!
trap 'kill "$SERVALD_PID" 2>/dev/null || true' EXIT
i=0
while [ ! -s target/servald.addr ] && [ "$i" -lt 100 ]; do
  i=$((i + 1))
  sleep 0.1
done
[ -s target/servald.addr ] || { echo "servald never wrote its address"; exit 1; }
SERVAL_ADDR="$(cat target/servald.addr)" ./target/release/serval-cli parity o1
SERVAL_ADDR="$(cat target/servald.addr)" ./target/release/serval-cli parity o1
kill "$SERVALD_PID"

# The monitor examples are, apart from unit tests, the only end-to-end
# callers of certikos noninterference, the legacy-spawn covert channel
# and the Keystone audit.
echo "== examples =="
cargo run --release --offline --example quickstart
cargo run --release --offline --example bpf_jit_check
cargo run --release --offline --example remote_probe
cargo run --release --offline --example certikos_monitor
cargo run --release --offline --example komodo_enclave
cargo run --release --offline --example keystone_audit

echo "CI OK"
