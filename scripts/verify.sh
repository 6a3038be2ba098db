#!/usr/bin/env sh
# Full local verification gate, offline-safe (no registry access needed):
#   fmt check -> clippy (warnings are errors) -> reference-feature guard
#   -> release build -> benchmark harness build -> tests (incl. the
#   bench crate's unit tests).
# Run from anywhere inside the repo. Pass --release to additionally run
# the E13 append-hot-path smoke row (builds the bench crate in release).
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> production builds do not enable ticc-core's \"reference\" feature"
# The paper-shaped reference pipeline and the test-only knobs compile
# only under that feature; the shipped binaries must not select it.
tree="$(cargo tree -e normal,features -p ticc -p ticc-server --offline)"
if echo "$tree" | grep -q 'ticc-core feature "reference"'; then
    echo "reference guard: a production crate enables ticc-core/reference"
    exit 1
fi

echo "==> cargo build --release"
cargo build --release --offline

echo "==> benchmark harness build (perfbench/harness, its own workspace)"
# The harness builds against the public crates by path; building it
# here catches API changes that would break the benchmark. Its output
# goes under target/, not perfbench/.
cargo build --release --offline --manifest-path perfbench/harness/Cargo.toml \
    --target-dir target/perfbench-harness

echo "==> cargo test -q"
cargo test -q --offline

echo "==> cargo test -q -p ticc-bench (outside default-members)"
cargo test -q --offline -p ticc-bench

echo "==> cargo doc --workspace --no-deps --document-private-items (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --document-private-items --offline

echo "==> shell smoke run"
smoke="$(mktemp)"
cat > "$smoke" <<'EOF'
schema pred Sub 1
constraint once: forall x. G (Sub(x) -> X G !Sub(x))
trigger dup: F (Sub(x) & X F Sub(x))
insert Sub(1)
commit
insert Sub(1)
commit
status
stats
EOF
out="$(./target/release/ticc-shell "$smoke")"
echo "$out" | grep -q "VIOLATION" || { echo "smoke: expected a violation"; exit 1; }
echo "$out" | grep -q "TRIGGER: 'dup' fires" || { echo "smoke: expected a firing"; exit 1; }
# Unknown flags are usage errors (exit 2), never read as a script path.
rc=0
./target/release/ticc-shell --threads 4 "$smoke" > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "smoke: unknown flag should exit 2 (got $rc)"; exit 1; }
rm -f "$smoke"
echo "smoke: OK"

echo "==> durability smoke (crash-reopen via --store)"
# Session 1: build a session against a store, checkpoint, exit. The
# process ending right after the last append doubles as the "crash":
# nothing below depends on a clean shutdown hook.
wal="$(mktemp -u)"
sess1="$(mktemp)"
cat > "$sess1" <<'EOF'
schema pred Sub 1
constraint once: forall x. G (Sub(x) -> X G !Sub(x))
insert Sub(1)
commit
checkpoint
delete Sub(1)
commit
EOF
./target/release/ticc-shell --store "$wal" "$sess1" > /dev/null
# Session 2: reopen the store — must resume (1 snapshot + 1 logged
# transaction after it) and still detect the re-submission.
sess2="$(mktemp)"
cat > "$sess2" <<'EOF'
insert Sub(1)
commit
status
EOF
out="$(./target/release/ticc-shell --store "$wal" "$sess2")"
echo "$out" | grep -q "restored from" || { echo "durability smoke: expected a restore summary"; exit 1; }
echo "$out" | grep -q "replayed 1 logged transaction" || { echo "durability smoke: expected a 1-tx replay"; exit 1; }
echo "$out" | grep -q "VIOLATION" || { echo "durability smoke: expected the re-submission violation"; exit 1; }
# One log format: the store is a TICCGRP01 group log.
[ "$(head -c 9 "$wal")" = "TICCGRP01" ] || { echo "durability smoke: --store should write a TICCGRP01 log"; exit 1; }
# Session 3: `compact` rewrites the log as registration + one snapshot,
# dropping the older snapshot and the logged transactions.
sess3="$(mktemp)"
printf 'compact\n' > "$sess3"
before="$(wc -c < "$wal")"
./target/release/ticc-shell --store "$wal" "$sess3" > /dev/null
after="$(wc -c < "$wal")"
[ "$after" -lt "$before" ] || { echo "durability smoke: compact should shrink the log ($before -> $after bytes)"; exit 1; }
# Fault injection: clobber the header magic — the shell must refuse
# with a friendly error and exit code 3, not panic.
printf 'XXXX' | dd of="$wal" bs=1 seek=0 conv=notrunc 2> /dev/null
rc=0
./target/release/ticc-shell --store "$wal" "$sess2" > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 3 ] || { echo "durability smoke: corrupt store should exit 3 (got $rc)"; exit 1; }
# A missing script file is exit code 1.
rc=0
./target/release/ticc-shell /no/such/script.ticc > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 1 ] || { echo "durability smoke: missing script should exit 1 (got $rc)"; exit 1; }
rm -f "$wal" "$sess1" "$sess2" "$sess3"
echo "durability smoke: OK"

echo "==> server smoke (ticc-server over loopback, 2 sessions, group WAL)"
# Start the server on an OS-assigned port, read the bound address off
# its stderr, then run a whole scripted session through the bundled
# client: two tenants, appends from both, a constraint violation
# arriving as a wire event, and a clean shutdown (exit code 0).
gwal="$(mktemp -u)"
slog="$(mktemp)"
./target/release/ticc-server serve --addr 127.0.0.1:0 --wal "$gwal" 2> "$slog" &
spid=$!
addr=""
tries=0
while [ $tries -lt 100 ]; do
    addr="$(sed -n 's/^ticc-server: listening on \([0-9.:]*\) .*/\1/p' "$slog")"
    [ -n "$addr" ] && break
    tries=$((tries + 1))
    sleep 0.1
done
[ -n "$addr" ] || { echo "server smoke: server did not start"; cat "$slog"; exit 1; }
out="$(printf '%s\n' \
    '{"op":"open","session":"a","preds":[["Sub",1]],"constraints":[["once","forall x. G (Sub(x) -> X G !Sub(x))"]]}' \
    '{"op":"open","session":"b","preds":[["Sub",1]]}' \
    '{"op":"append","session":"b","insert":["Sub(7)"]}' \
    '{"op":"append","session":"a","insert":["Sub(1)"]}' \
    '{"op":"append","session":"a","insert":["Sub(1)"]}' \
    '{"op":"stats","session":"a"}' \
    '{"op":"shutdown"}' \
    | ./target/release/ticc-server client --addr "$addr")"
echo "$out" | grep -q '"constraint":"once"' || { echo "server smoke: expected a violation event over the wire"; exit 1; }
echo "$out" | grep -q '"schema":"ticc-engine-stats-v4"' || { echo "server smoke: expected v4 stats"; exit 1; }
wait $spid || { echo "server smoke: server did not shut down cleanly"; exit 1; }
rm -f "$gwal" "$slog"
echo "server smoke: OK"

echo "==> mux soak (512 idle connections, event-driven core, 4 io threads)"
# The default serving core is the poll(2) multiplexer: 512 handshaken
# connections held idle, each then re-pinged to prove it is served —
# all on 4 io threads, no per-connection threads.
slog="$(mktemp)"
./target/release/ticc-server serve --addr 127.0.0.1:0 --io-threads 4 2> "$slog" &
spid=$!
addr=""
tries=0
while [ $tries -lt 100 ]; do
    addr="$(sed -n 's/^ticc-server: listening on \([0-9.:]*\) .*/\1/p' "$slog")"
    [ -n "$addr" ] && break
    tries=$((tries + 1))
    sleep 0.1
done
[ -n "$addr" ] || { echo "mux soak: server did not start"; cat "$slog"; exit 1; }
out="$(./target/release/ticc-server soak --addr "$addr" --conns 512)"
echo "$out" | grep -q "soak ok: 512 connections" || { echo "mux soak: expected 512 served connections"; exit 1; }
printf '{"op":"shutdown"}\n' | ./target/release/ticc-server client --addr "$addr" > /dev/null
wait $spid || { echo "mux soak: server did not shut down cleanly"; exit 1; }
rm -f "$slog"
echo "mux soak: OK"

if [ "${1:-}" = "--release" ]; then
    echo "==> E13/E14/E15/E16/E17/E19/E20 bench smoke (release)"
    cargo run --release --offline -p ticc-bench --bin experiments -- e13 e14 e15 e16 e17 e19 e20 --smoke
fi

echo "verify: OK"
