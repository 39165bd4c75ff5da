GO ?= go

.PHONY: all build test bench fuzz check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	bash bench/run.sh run

fuzz:
	$(GO) test -fuzz=FuzzRuleCompile -fuzztime=10s ./internal/rules
	$(GO) test -fuzz=FuzzTimerProgram -fuzztime=10s ./internal/sim
	$(GO) test -run='^FuzzParseSpec$$' -fuzz=FuzzParseSpec -fuzztime=10s ./internal/campaign

check:
	sh scripts/check.sh
