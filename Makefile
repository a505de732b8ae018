# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; `make lint` is the local mirror of the lint gate.

GO ?= go

.PHONY: build test race lint fuzz-smoke bench-smoke bench-regress fault-smoke trace-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/obs/ ./internal/report/ ./internal/memctrl/ ./internal/gpu/ ./internal/shard/ ./internal/tracestore/ ./internal/bus/ ./internal/fault/

# lint runs the in-repo gates that need no network. CI layers
# staticcheck and govulncheck on top (installed there with go install,
# which this container cannot do offline).
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/smores-lint ./...

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzSparseRoundTrip -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzDecodeGroupBurst -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzMTARoundTrip -fuzztime 10s ./internal/mta/
	$(GO) test -run '^$$' -fuzz FuzzEDCDetect -fuzztime 10s ./internal/edc/
	$(GO) test -run '^$$' -fuzz FuzzStoreRoundTrip -fuzztime 10s ./internal/tracestore/
	$(GO) test -run '^$$' -fuzz FuzzImport -fuzztime 10s ./internal/tracestore/
	$(GO) test -run '^$$' -fuzz FuzzProfileConservation -fuzztime 10s ./internal/bus/

bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

bench-regress:
	$(GO) run ./cmd/smores-bench -compare BENCH_baseline.json

# fault-smoke runs a small Monte Carlo fault campaign and gates on the
# link-reliability promise: with EDC enabled, a 1e-4 error rate must
# produce zero silent corruptions. Writes fault-smoke.json for
# inspection / CI artifact upload.
fault-smoke:
	$(GO) run ./cmd/smores-fault -rates 1e-4 -models uniform,bursty -edc on \
		-apps 2 -accesses 2000 -gate-silent -json fault-smoke.json

# trace-smoke drives the columnar trace-store pipeline end to end:
# record a workload straight into a sharded store, column-scan it
# (sector only — the other columns must stay on disk), verify every
# checksum, and replay it beside the committed SMTR fixture of the same
# stream imported as a store, demanding identical simulation output.
# Writes store-stats.json for inspection / CI artifact upload.
trace-smoke:
	rm -rf trace-smoke.store trace-smoke-fixture.store
	$(GO) run ./cmd/smores-trace -record bfs -n 2000 -seed 1 -store trace-smoke.store -shards 4 -name bfs-smoke
	$(GO) run ./cmd/smores-trace -info trace-smoke.store -stats-json store-stats.json
	$(GO) run ./cmd/smores-trace -scan trace-smoke.store -fields sector
	$(GO) run ./cmd/smores-trace -verify trace-smoke.store
	$(GO) run ./cmd/smores-trace -import internal/report/testdata/bfs-2000-seed1.smtr -store trace-smoke-fixture.store
	$(GO) run ./cmd/smores-trace -replay trace-smoke.store > trace-smoke-store.txt
	$(GO) run ./cmd/smores-trace -replay trace-smoke-fixture.store > trace-smoke-fixture.txt
	cmp trace-smoke-store.txt trace-smoke-fixture.txt
	cat trace-smoke-store.txt
