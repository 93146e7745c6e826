#!/usr/bin/env bash
# Builds and runs the signoff benchmark. From the repository root:
#
#   bash signoff-bench/run.sh --workload edit-loop --seed 7 --seconds 25 --trace 0
#
# The binary is built from a copy of the sources laid out as one
# workspace, the benchmark package next to `crates/*`, under `.bench_src/`.
# Cargo hashes the absolute path of a path dependency that lies outside
# the workspace being built into the crate's metadata, and from there into
# symbol names and the order in which the linker lays out code. Built in
# place, two checkouts of the same commit at different paths gave
# binaries whose 24 um wire parse ran at 4.9 and 7.3 s a job. Inside one
# workspace the paths are hashed relative to its root, so every checkout
# builds the same binary. The benchmark itself runs from the repository
# root and writes only under it.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates || ! -f signoff-bench/Cargo.toml ]]; then
    echo "signoff-bench: run from the repository root (Cargo.toml, crates/, signoff-bench/)" >&2
    exit 2
fi

src=.bench_src
mkdir -p "$src/signoff-bench"

# Writes stdin to $1 only when it differs, so an unchanged manifest keeps
# its modification time and the build stays fresh.
put() {
    local tmp="$1.new"
    cat >"$tmp"
    if cmp -s "$tmp" "$1"; then rm -f "$tmp"; else mv "$tmp" "$1"; fi
}

# The repository's workspace tables (everything before its [package]),
# with the benchmark added to the members.
awk '
    /^\[package\]/ { exit }
    skipping { if (/\]/) skipping = 0; next }
    /^members[ \t]*=/ {
        print "members = [\"crates/*\", \"signoff-bench\"]"
        if (!/\]/) skipping = 1
        next
    }
    { print }
' Cargo.toml | put "$src/Cargo.toml"

# The benchmark's manifest, without the [workspace] table that makes it a
# workspace of its own in place.
grep -v '^\[workspace\]$' signoff-bench/Cargo.toml | put "$src/signoff-bench/Cargo.toml"

# Sources, with their modification times kept.
rm -rf "$src/crates" "$src/signoff-bench/src"
cp -a crates "$src/crates"
cp -a signoff-bench/src "$src/signoff-bench/src"

exec cargo run --release --offline --quiet \
    --manifest-path "$src/signoff-bench/Cargo.toml" -p dfm-signoff-bench -- "$@"
