#!/bin/sh
# verify.sh — repo verification tiers.
#
#   scripts/verify.sh        tier 1: build + full test suite
#   scripts/verify.sh lint   lint tier: go vet and a gofmt -l check
#   scripts/verify.sh race   tier 2: tier 1 plus lint and the race
#                            detector (catches data races in the parallel
#                            experiment pool and the obs hot paths;
#                            several times slower)
#   scripts/verify.sh bench  tier 3: tier 1 plus a one-second smoke run
#                            of the real benchmark harness (bench/run.sh,
#                            walk-small on the 5-node disk-engine ring);
#                            a non-zero exit, a verification failure or
#                            any failed operation fails the tier (checks
#                            the harness still works; not a performance
#                            measurement)
#   scripts/verify.sh trace  trace tier: the request-tracing tests under
#                            -race (TCP propagation, sink wraparound, the
#                            cross-node e2e assembly) plus the alloc guard
#                            proving the unsampled path stays
#                            zero-allocation
#   scripts/verify.sh wire   wire tier: the binary-codec golden/malformed
#                            tests (MultiPut frames included) and
#                            connection-pool robustness tests under -race,
#                            the PutMany/MultiPut ring tests on mem and
#                            TCP, a short codec fuzz pass, and the alloc
#                            guard proving the TCP serve path
#                            (read→decode→handle→encode→writev) stays
#                            zero-allocation; it also prints the client
#                            read ladder's allocs/op (BenchmarkBatchedRead,
#                            mem ring; a figure to compare against the
#                            parent commit, not a gate)
#   scripts/verify.sh stream stream tier: the windowed-readahead pipeline
#                            tests under -race (backpressure, adaptive
#                            window, cancellation, the mid-stream
#                            node-kill e2e) and the client read ladder's
#                            cost and dead-owner tests, plus the alloc
#                            gate proving segment buffers recycle through
#                            the pool (< 4 MB allocated per 8 MB streamed)
#   scripts/verify.sh obs    obs tier: the history/health/flight tests and
#                            the doctor + flight e2e under -race, a 10 s
#                            concurrent sampler soak, and the alloc gates
#                            proving the sampling tick and the health
#                            evaluation both stay zero-allocation
#   scripts/verify.sh census census tier: the placement-census tests under
#                            -race (golden layouts, merge associativity,
#                            the live balance-improves-locality e2e, the
#                            store ArcVisit walk on the shared index, the
#                            maintenance round walking the index once and
#                            matching a standalone sweep), a 10 s
#                            sweep-during-churn soak, and the alloc gate
#                            proving the standalone sweep stays
#                            zero-allocation
#   scripts/verify.sh disk   disk tier: the shared-index and durable-
#                            engine tests under -race (engine parity
#                            incl. PutBatch, MedianKey and Refresh
#                            hammers, recovery, checkpoint, torn tails and
#                            torn batches, injected WAL write/fsync
#                            failures, the kill -9 process e2es — single
#                            puts and mid-MultiPut — the group-commit
#                            check on a durable TCP ring, and the durable
#                            ack of single puts and hand-offs), a 10 s
#                            crash-loop soak
#                            (repeated recover cycles with checkpoints
#                            interleaved), a 10 s WAL-replay fuzz pass,
#                            and the alloc gate proving the indexed read
#                            path (ReadInto) stays zero-allocation
set -eu
cd "$(dirname "$0")/.."

lint() {
	echo "== lint: go vet ./... && gofmt -l ."
	go vet ./...
	fmt=$(gofmt -l .)
	if [ -n "$fmt" ]; then
		echo "gofmt: needs formatting:" >&2
		echo "$fmt" >&2
		exit 1
	fi
}

if [ "${1:-}" = "lint" ]; then
	lint
	exit 0
fi

if [ "${1:-}" = "trace" ]; then
	echo "== trace tier: tracing tests under -race"
	go test -race ./internal/obs/tracing/
	go test -race -run 'Trace' ./internal/obs/ ./internal/transport/ ./internal/node/ .
	echo "== trace tier: unsampled-path alloc guard (want 0 allocs/op)"
	out=$(go test -run '^$' -bench 'BenchmarkStartOpUnsampled' -benchmem \
		./internal/obs/tracing/ | tee /dev/stderr)
	echo "$out" | grep -q 'BenchmarkStartOpUnsampled.* 0 B/op[[:space:]]*0 allocs/op' || {
		echo "trace tier: unsampled StartOp allocates" >&2
		exit 1
	}
	exit 0
fi

if [ "${1:-}" = "wire" ]; then
	echo "== wire tier: codec + pool tests under -race"
	go test -race -run 'Codec|Pool|TCP' ./internal/transport/
	go test -race -run 'PutMany|MultiPut|PutCancels' ./internal/node/
	echo "== wire tier: codec fuzz (10s)"
	go test -run '^$' -fuzz 'FuzzCodecRoundTrip' -fuzztime 10s ./internal/transport/
	echo "== wire tier: TCP serve-path alloc guard (want 0 allocs/op)"
	out=$(go test -run '^$' -bench 'BenchmarkTCPServePath' -benchmem \
		./internal/transport/ | tee /dev/stderr)
	echo "$out" | grep -q 'BenchmarkTCPServePath.* 0 B/op[[:space:]]*0 allocs/op' || {
		echo "wire tier: TCP serve path allocates" >&2
		exit 1
	}
	echo "== wire tier: client read ladder allocs/op (report only; perblock = 64 single-key Gets)"
	go test -run '^$' -bench 'BenchmarkBatchedRead/transport=mem' -benchtime 100x -benchmem ./internal/node/ | grep 'allocs/op'
	exit 0
fi

if [ "${1:-}" = "stream" ]; then
	echo "== stream tier: streaming pipeline tests under -race"
	go test -race -run 'Stream|ReadCacheByteCap|MissingKeysCostOneLadder|EveryOpSurvivesDeadCachedOwner' ./internal/fs/ ./internal/node/ .
	echo "== stream tier: consume-path alloc gate (want < 4 MB/op for an 8 MB stream)"
	out=$(go test -run '^$' -bench 'BenchmarkStreamConsume' -benchmem \
		./internal/fs/ | tee /dev/stderr)
	echo "$out" | awk '
		/BenchmarkStreamConsume/ { for (i = 2; i <= NF; i++) if ($i == "B/op") bytes = $(i-1) }
		END {
			if (bytes == "" || bytes + 0 >= 4194304) {
				print "stream tier: consume path allocated " bytes " B/op (segment pool regression?)" > "/dev/stderr"
				exit 1
			}
		}'
	exit 0
fi

if [ "${1:-}" = "obs" ]; then
	echo "== obs tier: history/health/flight tests under -race"
	go test -race ./internal/obs/history/
	go test -race -run 'Health|Doctor|Flight|ExpositionStrict|AdminPlane' .
	echo "== obs tier: 10s concurrent sampler soak under -race"
	D2_HISTORY_SOAK=10s go test -race -run 'TestSamplerSoak' ./internal/obs/history/
	echo "== obs tier: tick + evaluation alloc gates (want 0 allocs/op)"
	out=$(go test -run '^$' -bench 'BenchmarkSamplerTick|BenchmarkHealthEvaluate' -benchmem \
		./internal/obs/history/ | tee /dev/stderr)
	echo "$out" | grep -q 'BenchmarkSamplerTick.* 0 B/op[[:space:]]*0 allocs/op' || {
		echo "obs tier: sampling tick allocates" >&2
		exit 1
	}
	echo "$out" | grep -q 'BenchmarkHealthEvaluate.* 0 B/op[[:space:]]*0 allocs/op' || {
		echo "obs tier: health evaluation allocates" >&2
		exit 1
	}
	exit 0
fi

if [ "${1:-}" = "census" ]; then
	echo "== census tier: census + store-walk tests under -race"
	go test -race ./internal/obs/census/
	go test -race -run 'TestArcVisit' ./internal/store/
	go test -race -run 'TestCensusLocalityImprovesAfterBalance' .
	go test -race -run 'TestMaintenanceRoundWalksOnce' ./internal/node/
	echo "== census tier: 10s sweep-during-churn soak under -race"
	D2_CENSUS_SOAK=10s go test -race -run 'TestSweepDuringChurn' ./internal/obs/census/
	echo "== census tier: sweep-tick alloc gate (want 0 allocs/op)"
	out=$(go test -run '^$' -bench 'BenchmarkSweepTick' -benchmem \
		./internal/obs/census/ | tee /dev/stderr)
	echo "$out" | grep -q 'BenchmarkSweepTick.* 0 B/op[[:space:]]*0 allocs/op' || {
		echo "census tier: steady-state sweep tick allocates" >&2
		exit 1
	}
	exit 0
fi

if [ "${1:-}" = "disk" ]; then
	echo "== disk tier: durable-engine tests under -race (incl. kill -9 e2e)"
	go test -race ./internal/store/ ./internal/store/disk/
	go test -race -run 'TestDiskNodeCrash|TestWritePathGroupsCommits' .
	go test -race -run 'TestDurableAck' ./internal/node/
	echo "== disk tier: 10s crash-loop soak"
	D2_DISK_SOAK=10s go test -race -run 'TestCrashLoop' ./internal/store/disk/
	echo "== disk tier: WAL replay fuzz (10s)"
	go test -run '^$' -fuzz 'FuzzWALReplay' -fuzztime 10s ./internal/store/disk/
	echo "== disk tier: indexed-read alloc gate (want 0 allocs/op)"
	out=$(go test -run '^$' -bench 'BenchmarkDiskReadInto' -benchmem \
		./internal/store/disk/ | tee /dev/stderr)
	echo "$out" | grep -q 'BenchmarkDiskReadInto.* 0 B/op[[:space:]]*0 allocs/op' || {
		echo "disk tier: indexed read path allocates" >&2
		exit 1
	}
	exit 0
fi

echo "== tier 1: go build ./... && go test ./..."
go build ./...
go test ./...

if [ "${1:-}" = "race" ]; then
	lint
	echo "== tier 2: go test -race (full suite, incl. internal/obs)"
	go test -race ./...
fi

if [ "${1:-}" = "bench" ]; then
	echo "== tier 3: benchmark harness smoke (walk-small, 1 s)"
	out=$(bash bench/run.sh --workload walk-small --seconds 1 | tee /dev/stderr)
	echo "$out" | tail -n 1 | grep -q '"correct":true,"attempted":[1-9][0-9]*,"failed":0,' || {
		echo "bench tier: harness reported a verification failure or failed operations" >&2
		exit 1
	}
fi
