# Verification tiers. Tier 1 is the build gate: build, vet, and the full
# test suite — which includes the t_chaos and t_overload experiment
# smokes (TestChaos, TestOverload). Tier 2 adds the race detector,
# backed by the concurrent-resolve and coalescing hammer tests in
# internal/resolver and the overload-primitive races in internal/overload.

.PHONY: verify verify-race bench-full bench-smoke bench-check fuzz-short socket-smoke loc

verify:
	go build ./... && go vet ./... && go test ./...

verify-race:
	go vet ./... && go test -race ./...

# The two line counts ROADMAP tracks, so every change reports them the
# same way: non-test Go outside bench/, and non-test Go in the
# observability stack (internal/obs with obs/traffic and obs/tsdb).
loc:
	@printf 'non-test Go outside bench/:        '; \
		find . -path ./bench -prune -o -path './.*' -prune -o \
		-name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l
	@printf 'non-test Go in obs:                '; \
		find internal/obs -name '*.go' ! -name '*_test.go' \
		-print | xargs cat | wc -l

# CI smoke: every benchmark in the tree, one iteration each. The
# timings mean nothing; this gate only proves the benchmarks still run.
# Figures come from rootbench (bash bench/run.sh) and the AllocsPerRun
# pins in each package's tests.
bench-smoke:
	go test -run='^$$' -bench=. -benchtime=1x ./...

# rootbench (bench/) is a Go module of its own that imports internal/
# packages through a replace directive, so the root module's build and
# tests never compile it: this target does, so that an internal/ API
# change that breaks the benchmark fails CI rather than the next
# benchmark run.
bench-check:
	go vet -C bench ./... && go test -C bench ./...

# Real-socket smoke: the tests that serve over loopback sockets, uncached
# (-count=1) so a kernel or socket-option change shows here. authd through
# the socket engine and its buffer-retention hammer, resolverd's recursive
# server, and the engine's worker x batch parity matrix. They also run in
# `make verify`; this target isolates them for CI. Serving capacity over
# real sockets is measured by rootbench (bash bench/run.sh).
socket-smoke:
	go test -count=1 -run='^(TestServeUDPRealSocket|TestEngineHandlerRetentionRace)$$' ./internal/authserver
	go test -count=1 -run='^TestRecursiveServerOverRealSockets$$' ./internal/resolver
	go test -count=1 -run='^TestParityAcrossConfigs$$' ./internal/udpengine

# The unfiltered sweep: every benchmark in the tree, time-based.
bench-full:
	go test -bench=. -benchmem ./...

# Short coverage-guided fuzz pass over the wire codec, canonical name
# ordering and sort keys against their label-parsing reference, the
# master-file reader against the one it replaced, the trust-anchor file
# reader, the zone's denial lookups against their scans, the RRset delta
# and zone diff against map-based references, the delta bundle decoder
# and applier, the two UDP front doors (authd's against the route it
# replaced, on a root and on a zone below it) and the resolver's
# upstream-response path (~10s per target). FuzzDeltaApply's inputs are
# whole bundles that take long to minimise: capped at 1s per input, it runs
# ~5 900 executions in its window instead of ~600. FuzzRRsetDelta's two
# zones stall its workers the same way, and take the same cap.
fuzz-short:
	go test ./internal/dnswire -run='^$$' -fuzz=FuzzMessageUnpack -fuzztime=10s
	go test ./internal/dnswire -run='^$$' -fuzz=FuzzNameParse -fuzztime=10s
	go test ./internal/dnswire -run='^$$' -fuzz=FuzzNameCompare -fuzztime=10s
	go test ./internal/zone -run='^$$' -fuzz=FuzzZoneParse -fuzztime=10s
	go test ./internal/dnssec -run='^$$' -fuzz=FuzzReadPublicKey -fuzztime=10s
	go test ./internal/zone -run='^$$' -fuzz=FuzzDeny -fuzztime=10s
	go test ./internal/zonediff -run='^$$' -fuzz=FuzzRRsetDelta -fuzztime=10s -fuzzminimizetime=1s
	go test ./internal/dist -run='^$$' -fuzz=FuzzDecodeDeltaBundle -fuzztime=10s
	go test ./internal/dist -run='^$$' -fuzz=FuzzDeltaApply -fuzztime=10s -fuzzminimizetime=1s
	go test ./internal/resolver -run='^$$' -fuzz=FuzzResolverDatagram -fuzztime=10s
	go test ./internal/resolver -run='^$$' -fuzz=FuzzUpstreamResponse -fuzztime=10s
	go test ./internal/authserver -run='^$$' -fuzz=FuzzServeWire -fuzztime=10s
