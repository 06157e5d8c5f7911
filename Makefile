# Standard checks for this repository. `make check` is the gate every
# change must pass: gofmt, vet, the project's own static analyzers
# (wikilint), the full test suite under the race detector, and the
# allocation guards (which skip under -race, so they get a plain run).

GO ?= go

.PHONY: check build test vet lint lint-cold race bench allocguard fuzzsmoke fmt fmtcheck

check: fmtcheck vet lint race allocguard fuzzsmoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# wikilint runs the engine-specific analyzers (atomicfield, hotpathalloc,
# nocopy, ctxhandler, mmapview, singlewriter, lifecycle, durability and the
# directives validator) over the whole module; see internal/analysis and
# DESIGN.md §8/§13. Warm runs replay from the content-hash result cache;
# lint-cold forces a fresh analysis.
lint:
	$(GO) run ./cmd/wikilint ./...

lint-cold:
	$(GO) run ./cmd/wikilint -nocache ./...

race:
	$(GO) test -race ./...

# The zero-allocation guards use testing.AllocsPerRun, which the race
# detector's instrumentation would break, so they skip under -race and run
# here without it.
allocguard:
	$(GO) test -run AllocationFree -count=1 . ./internal/core ./internal/parallel ./internal/trace

# A short coverage-guided fuzz pass over every dump decoder generation
# (v1/v2 streams, v3 mmap images): corrupt dumps must never panic or
# over-allocate. The full corpus lives under testdata/fuzz via go test.
fuzzsmoke:
	$(GO) test -run=^$$ -fuzz=FuzzLoadDump -fuzztime=20s ./internal/storage

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...
	$(GO) run ./cmd/benchrunner -exp core -core-out BENCH_core.json
	$(GO) run ./cmd/benchrunner -exp startup -startup-out BENCH_startup.json

fmt:
	gofmt -l -w .

# fmtcheck fails (listing the files) when anything is not gofmt-clean.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
