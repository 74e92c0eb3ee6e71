#!/usr/bin/env bash
# Single race-detector entry point, identical locally (`make race`) and
# in CI: `go test -race -short` over the package list below.
set -eu
cd "$(dirname "$0")/.."

exec go test -race -short \
  ./internal/core/... ./internal/cm/... ./internal/obs/... \
  ./internal/tuning/... ./internal/kvstore/... ./internal/kvserver/... \
  ./internal/kvproto/... ./internal/kvclient/... ./internal/resilience/... \
  ./internal/netchaos/... ./internal/mvcc/... ./internal/reclaim/... \
  ./internal/wal/... ./internal/analysis/... "$@"
