GO ?= go

.PHONY: all build test lint lint-negative race bench

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs the exact script CI runs: gofmt, go vet, stmlint, and
# staticcheck when installed.
lint:
	./scripts/lint.sh

# lint-negative proves the stmlint gate rejects an injected violation.
lint-negative:
	./scripts/stmlint_negative.sh

# race runs the exact script CI runs: the race detector over the
# package list kept in that script.
race:
	./scripts/race.sh

# bench runs the exact script CI's bench job runs: every suite repeated
# five times, the pipelined binary-protocol round trip included.
bench:
	./scripts/bench.sh
