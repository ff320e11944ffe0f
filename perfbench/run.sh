#!/usr/bin/env bash
# The benchmark's command: builds the benchmark package, then runs it
# pinned to one CPU with the arguments given, e.g.
#
#     bash perfbench/run.sh --workload oneshot-ff --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The binary lands in $CARGO_TARGET_DIR
# (default perfbench/target). Pinning keeps the wire executors' worker
# hand-offs on one CPU: on a 2-vCPU VM, hand-offs across vCPUs made
# `oneshot-wire` runs differ by 30 % and more (see README.md). Under the
# pin `available_parallelism` is 1, so the wire executors' default worker
# count is 1.
set -euo pipefail

cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml
bin="${CARGO_TARGET_DIR:-perfbench/target}/release/bil-perfbench"

# The first CPU this process may run on, e.g. "0" from "…: 0,1" or "0-3".
allowed="$(taskset -pc $$ 2>/dev/null || true)"
cpu="${allowed##*: }"
cpu="${cpu%%[-,]*}"
if [[ -n "$allowed" && "$cpu" =~ ^[0-9]+$ ]]; then
    exec taskset -c "$cpu" "$bin" "$@"
fi
echo "taskset unavailable: running unpinned" >&2
exec "$bin" "$@"
