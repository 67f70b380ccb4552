#!/usr/bin/env bash
# wfbench — one command for the repository's benchmark.
#
#   benchmark/run.sh [--seed N] [--seconds N] [--smoke] [--trace]   all five workloads
#   benchmark/run.sh --workload NAME [--seed N] [--seconds N] [--trace 0|1]   one (the harness's form)
#   benchmark/run.sh --selftest                       the benchmark's own tests
#   benchmark/run.sh --compare BASE.json CHANGE.json  PASS / REGRESSED / UNRESOLVED per metric
#
# Builds --release into $CARGO_TARGET_DIR (default benchmark/target), runs
# each workload in a process of its own, prints every metric as
# `workload metric value unit`, and writes benchmark/out/result.json
# (and, traced, benchmark/out/trace-<workload>.jsonl). See README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"

if [[ "${1:-}" == "--selftest" ]]; then
    exec cargo test --release --offline --manifest-path "$manifest"
fi

cargo build --release --offline --manifest-path "$manifest" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/wfbench"
out="$here/out"

for arg in "$@"; do
    case "$arg" in
    --workload | --compare | --list) exec "$bin" "$@" --out "$out" ;;
    esac
done

rc=0
for w in $("$bin" --list); do
    # The last line is the harness's JSON; result.json carries it all.
    "$bin" --workload "$w" "$@" --out "$out" | sed '$d' || rc=1
done
{
    printf '{'
    sep=''
    for w in $("$bin" --list); do
        printf '%s\n"%s": ' "$sep" "$w"
        tr -d '\n' <"$out/result-$w.json"
        sep=','
    done
    printf '\n}\n'
} >"$out/result.json"
echo "# wrote $out/result.json" >&2
exit "$rc"
