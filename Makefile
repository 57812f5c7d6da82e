# Verification tiers. Tier 1 is the build gate: build, vet, and the full
# test suite — which includes the t_chaos and t_overload experiment
# smokes (TestChaos, TestOverload). Tier 2 adds the race detector,
# backed by the concurrent-resolve and coalescing hammer tests in
# internal/resolver and the overload-primitive races in internal/overload.

.PHONY: verify verify-race bench bench-full bench-diff bench-smoke bench-check fuzz-short loadgen-smoke

verify:
	go build ./... && go vet ./... && go test ./...

verify-race:
	go vet ./... && go test -race ./...

# Perf-trajectory snapshot: run the key benchmarks with fixed iteration
# counts (stable comparisons, bounded runtime) and write a schema-stable
# JSON report, then validate it and diff against the previous committed
# snapshot if one exists. Set BENCH=BENCH_PR11.json for the next PR; the
# committed snapshot is regression-checked by TestCommittedSnapshot in
# internal/benchfmt, which `make verify` runs. Iteration counts are
# pinned high enough that the derived overhead figures sit above the
# benchfmt noise band — 2000x resolve runs were short enough to report
# negative tracing overhead. The cache package runs at -cpu=8 so the
# sharded/single-lock parallel Get pair actually contends (the ratio is
# only meaningful on a multi-core runner; single-core hovers near 1x).
BENCH ?= BENCH_PR10.json

bench:
	@set -e; \
	( go test -run='^$$' -bench='^BenchmarkResolve$$' -benchtime=100000x -count=1 -benchmem ./internal/resolver; \
	  go test -run='^$$' -bench='^BenchmarkResolveConcurrent$$' -benchtime=2000x -count=1 -benchmem ./internal/resolver; \
	  go test -run='^$$' -bench='^(BenchmarkResolverServe|BenchmarkResolveParallel)$$' -benchtime=100000x -count=1 -benchmem ./internal/resolver; \
	  go test -run='^$$' -bench=. -benchtime=1000000x -count=1 -benchmem ./internal/obs; \
	  go test -run='^$$' -bench=. -benchtime=1000000x -count=1 -benchmem ./internal/obs/traffic; \
	  go test -run='^$$' -bench=. -benchtime=100000x -count=1 -benchmem \
	    ./internal/overload ./internal/dnswire ./internal/authserver; \
	  go test -run='^$$' -bench='^(BenchmarkZoneQuery|BenchmarkNSECCovering|BenchmarkDeny)$$' -benchtime=100000x -count=1 -benchmem ./internal/zone; \
	  go test -run='^$$' -bench='^(BenchmarkZoneNames|BenchmarkIndexBuild|BenchmarkZoneClone)$$' -benchtime=500x -count=1 -benchmem ./internal/zone; \
	  go test -run='^$$' -bench='^BenchmarkCache$$/^(Get|Put)$$' -benchtime=1000000x -count=1 -benchmem ./internal/cache; \
	  go test -run='^$$' -bench='^BenchmarkCache$$/^GetParallel' -benchtime=100000x -count=1 -benchmem -cpu=8 ./internal/cache; \
	  go test -run='^$$' -bench='^BenchmarkValidate$$' -benchtime=20000x -count=1 -benchmem ./internal/dnssec/validator; \
	  go test -run='^$$' -bench='^BenchmarkNSECSynthesize$$' -benchtime=200000x -count=1 -benchmem ./internal/cache; \
	  go test -run='^$$' -bench='^(BenchmarkDeltaApply|BenchmarkDeltaApplyRoot|BenchmarkFullBundleVerify)$$' -benchtime=500x -count=1 -benchmem ./internal/dist; \
	  go test -run='^$$' -bench='^BenchmarkServedQPS$$' -benchtime=20000x -count=1 ./internal/loadgen \
	) | tee /dev/stderr | go run ./cmd/benchreport -write $(BENCH); \
	go run ./cmd/benchreport -validate $(BENCH) -min 8; \
	prev=$$(ls BENCH_*.json | grep -v "^$(BENCH)$$" | sort | tail -1 || true); \
	if [ -n "$$prev" ]; then go run ./cmd/benchreport -diff $$prev $(BENCH); fi

# Regression gate: fail if any benchmark in the current snapshot is more
# than 15% slower than the previous committed snapshot.
bench-diff:
	@prev=$$(ls BENCH_*.json | grep -v "^$(BENCH)$$" | sort | tail -1 || true); \
	if [ -z "$$prev" ]; then echo "bench-diff: no previous snapshot"; exit 0; fi; \
	go run ./cmd/benchreport -check -max-regress 0.15 $$prev $(BENCH)

# CI smoke: a fast pass over the hot-path benchmarks that exercises the
# bench → report → validate pipeline without writing a snapshot. Low
# iteration counts make the timings meaningless; this gate only proves
# the benchmarks run and the report machinery parses their output.
bench-smoke:
	@set -e; \
	( go test -run='^$$' -bench='^BenchmarkResolve$$' -benchtime=100x -count=1 -benchmem ./internal/resolver; \
	  go test -run='^$$' -bench='^BenchmarkHDRRecord$$' -benchtime=10000x -count=1 -benchmem ./internal/obs \
	) | go run ./cmd/benchreport -write /tmp/bench-smoke.json; \
	go run ./cmd/benchreport -validate /tmp/bench-smoke.json -min 4; \
	rm -f /tmp/bench-smoke.json

# rootbench (bench/) is a Go module of its own that imports internal/
# packages through a replace directive, so the root module's build and
# tests never compile it: this target does, so that an internal/ API
# change that breaks the benchmark fails CI rather than the next
# benchmark run.
bench-check:
	go vet -C bench ./... && go test -C bench ./...

# Real-socket serving smoke: 2k loadgen queries against an in-process
# authd on loopback must come back at >= 99% and emit schema-valid
# rootless-bench JSON. Also runs as part of `make verify` (it is an
# ordinary test in internal/loadgen); this target isolates it for CI.
loadgen-smoke:
	go test -run='^TestSmokeAgainstAuthd$$' -count=1 ./internal/loadgen

# The unfiltered sweep: every benchmark in the tree, time-based.
bench-full:
	go test -bench=. -benchmem ./...

# Short coverage-guided fuzz pass over the wire codec, canonical name
# ordering and sort keys against their label-parsing reference, the
# master-file parser, the zone's denial lookups against their scans, the
# delta bundle decoder, the two UDP front doors (authd's against the
# route it replaced, on a root and on a zone below it) and the resolver's
# upstream-response path (~10s per target).
fuzz-short:
	go test ./internal/dnswire -run='^$$' -fuzz=FuzzMessageUnpack -fuzztime=10s
	go test ./internal/dnswire -run='^$$' -fuzz=FuzzNameParse -fuzztime=10s
	go test ./internal/dnswire -run='^$$' -fuzz=FuzzNameCompare -fuzztime=10s
	go test ./internal/zone -run='^$$' -fuzz=FuzzZoneParse -fuzztime=10s
	go test ./internal/zone -run='^$$' -fuzz=FuzzDeny -fuzztime=10s
	go test ./internal/dist -run='^$$' -fuzz=FuzzDecodeDeltaBundle -fuzztime=10s
	go test ./internal/resolver -run='^$$' -fuzz=FuzzResolverDatagram -fuzztime=10s
	go test ./internal/resolver -run='^$$' -fuzz=FuzzUpstreamResponse -fuzztime=10s
	go test ./internal/authserver -run='^$$' -fuzz=FuzzServeWire -fuzztime=10s
