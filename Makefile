# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; `make lint` is the local mirror of the lint gate.

GO ?= go

.PHONY: build test race lint golden fuzz-smoke bench-smoke bench-selftest bench-golden fault-smoke trace-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/obs/ ./internal/report/ ./internal/memctrl/ ./internal/gpu/ ./internal/shard/ ./internal/tracestore/ ./internal/bus/ ./internal/fault/

# lint runs the in-repo gates that need no network. CI layers
# staticcheck and govulncheck on top (installed there with go install,
# which needs network access). The gofmt check lists only tracked files,
# so build output such as bench/'s .bench_build/ is never scanned; it
# fails on any file gofmt would rewrite and names it.
lint:
	$(GO) vet ./...
	test -z "$$(gofmt -l $$(git ls-files '*.go') | tee /dev/stderr)"
	$(GO) run ./cmd/smores-lint ./...

# golden rewrites the committed smores-eval outputs under
# cmd/smoke/testdata/ from the current tree; review the diff before
# committing it. `make test` diffs against them without rewriting.
golden:
	$(GO) test ./cmd/smoke -run TestEvalGolden -update

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzSparseRoundTrip -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzDecodeGroupBurst -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzMTARoundTrip -fuzztime 10s ./internal/mta/
	$(GO) test -run '^$$' -fuzz FuzzEDCDetect -fuzztime 10s ./internal/edc/
	$(GO) test -run '^$$' -fuzz FuzzStoreRoundTrip -fuzztime 10s ./internal/tracestore/
	$(GO) test -run '^$$' -fuzz FuzzImport -fuzztime 10s ./internal/tracestore/
	$(GO) test -run '^$$' -fuzz FuzzOpen -fuzztime 10s ./internal/tracestore/
	$(GO) test -run '^$$' -fuzz FuzzProfileConservation -fuzztime 10s ./internal/bus/
	$(GO) test -run '^$$' -fuzz FuzzBoolThreshold -fuzztime 10s ./internal/rng/
	$(GO) test -run '^$$' -fuzz FuzzFirstBelow -fuzztime 10s ./internal/rng/
	$(GO) test -run '^$$' -fuzz FuzzSchedulerMatchesLinearScan -fuzztime 10s ./internal/memctrl/

bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem .

# bench-selftest vets and tests the benchmark module. bench/ is a module
# of its own, so `make test` never reaches it; its self-tests replay
# every workload at tiny sizes against the golden digests in
# bench/testdata/.
bench-selftest:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# bench-golden runs every workload once at full size and seed 1 and
# holds it to its golden digest in bench/testdata/, as CI's bench-golden
# job does; bench-selftest replays tiny sizes only. It gates `correct`,
# never wall time.
bench-golden:
	for w in table5-sweep exact-link multichannel-llc store-replay; do \
		bash -o pipefail -c "bash bench/run.sh -workload $$w -seed 1 -seconds 1 -trace 0 | tail -n 1 | jq -e .correct" || exit 1; \
	done

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
