GO ?= go

.PHONY: all build test bench fuzz check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem ./...

fuzz:
	$(GO) test -fuzz=FuzzRuleCompile -fuzztime=10s ./internal/rules
	$(GO) test -fuzz=FuzzTimerProgram -fuzztime=10s ./internal/sim

check:
	sh scripts/check.sh
