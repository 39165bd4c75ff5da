GO ?= go

.PHONY: all build test bench fuzz check counts

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	bash bench/run.sh run

fuzz:
	$(GO) test -run='^FuzzRuleCompile$$' -fuzz=FuzzRuleCompile -fuzztime=10s ./internal/rules
	$(GO) test -run='^FuzzStepBatch$$' -fuzz=FuzzStepBatch -fuzztime=10s ./internal/rules
	$(GO) test -run='^FuzzRuleCommand$$' -fuzz=FuzzRuleCommand -fuzztime=10s ./internal/core
	$(GO) test -run='^FuzzCommandLine$$' -fuzz=FuzzCommandLine -fuzztime=10s ./internal/core
	$(GO) test -run='^FuzzProcessBatch$$' -fuzz=FuzzProcessBatch -fuzztime=10s ./internal/core
	$(GO) test -run='^FuzzSerialFraming$$' -fuzz=FuzzSerialFraming -fuzztime=10s ./internal/serial
	$(GO) test -run='^FuzzTimerProgram$$' -fuzz=FuzzTimerProgram -fuzztime=10s ./internal/sim
	$(GO) test -run='^FuzzParseSpec$$' -fuzz=FuzzParseSpec -fuzztime=10s ./internal/campaign
	$(GO) test -run='^FuzzFabricShardEquivalence$$' -fuzz=FuzzFabricShardEquivalence -fuzztime=10s ./internal/campaign
	$(GO) test -run='^FuzzInterfaceReassembly$$' -fuzz=FuzzInterfaceReassembly -fuzztime=10s ./internal/myrinet
	$(GO) test -run='^FuzzTopoBuild$$' -fuzz=FuzzTopoBuild -fuzztime=10s ./internal/topo

check:
	sh scripts/check.sh

counts:
	sh scripts/counts.sh
