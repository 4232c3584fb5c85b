#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it
# from the repository root; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload bulk --seed 1 --seconds 12 --trace 0
#
# The Go build cache, the binary and the run's scratch files live under
# .bench_build in the repository root; nothing is written elsewhere.
set -euo pipefail

if [ ! -f go.mod ] || ! grep -q '^module revtr$' go.mod || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of the revtr repository (go.mod with module revtr not found)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd perfbench && go build -buildvcs=false -trimpath -o "$out/perfbench" .) >&2

commit=unknown
if [ -d .git ] && command -v git >/dev/null 2>&1; then
	commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git rev-parse HEAD 2>/dev/null || echo unknown)
fi
digest=$(find . -name '*.go' -not -path './.bench_build/*' -print0 | LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum | cut -c1-16)

exec "$out/perfbench" -workdir "$out/work" -commit "$commit" -source-digest "$digest" "$@"
