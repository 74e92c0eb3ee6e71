#!/usr/bin/env bash
# Single benchmark entry point, identical locally (`make bench`) and in
# CI's bench job. Every benchmark repeats 5 times (-count=5) so
# cmd/benchdiff compares medians and prints their spread. The micro
# suites and figure reproductions run one iteration per repeat (a figure
# is seconds on its own); the pipelined binary-protocol round trip in
# internal/kvserver runs 20000 per repeat (about 0.1 s), since one of its
# iterations is a single network round trip. Extra args pass through to
# both `go test` calls.
set -eu
cd "$(dirname "$0")/.."

go test -bench=. -benchtime=1x -count=5 -run '^$' \
  ./internal/microbench ./internal/core ./internal/tl2 ./internal/kvproto \
  ./internal/obs . "$@"
go test -bench=ProtoPipelined -benchtime=20000x -count=5 -run '^$' \
  ./internal/kvserver "$@"
