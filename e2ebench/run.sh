#!/usr/bin/env bash
# End-to-end benchmark entry point. Run from the repository root:
#
#   bash e2ebench/run.sh --workload pipe-paper --seed 1 --seconds 40 --trace 0
#   bash e2ebench/run.sh steady --runs 5
#
# It builds the daemons under test (leakstream, sigserver, flowproxy,
# leakcluster) and the benchmark binary from source into .bench_build/,
# keeping every cache, temporary file and generated input inside that
# directory, then hands its arguments to the benchmark binary, whose last
# stdout line is the result JSON; build output goes to stderr.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/leakstream" || ! -d "$root/e2ebench" ]]; then
	echo "e2ebench: run from the repository root (go.mod, cmd/ and e2ebench/ must be present)" >&2
	exit 2
fi

work="$root/.bench_build"
mkdir -p "$work/bin" "$work/gocache" "$work/gopath" "$work/tmp" "$work/xdg/config" "$work/xdg/cache"
export GOCACHE="$work/gocache"
export GOPATH="$work/gopath"
export GOMODCACHE="$work/gopath/pkg/mod"
export GOTMPDIR="$work/tmp"
export TMPDIR="$work/tmp"
export XDG_CONFIG_HOME="$work/xdg/config"
export XDG_CACHE_HOME="$work/xdg/cache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false
export GOTELEMETRY=off

go build -o "$work/bin/" ./cmd/leakstream ./cmd/sigserver ./cmd/flowproxy ./cmd/leakcluster >&2
(cd "$root/e2ebench" && go build -o "$work/bin/e2ebench" .) >&2

commit=unknown
if [[ -d "$root/.git" ]] && command -v git >/dev/null 2>&1; then
	commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi

exec "$work/bin/e2ebench" -root "$root" -work "$work" -commit "$commit" "$@"
