#!/bin/sh
# verify.sh — repo verification tiers.
#
#   scripts/verify.sh        tier 1: build + full test suite
#   scripts/verify.sh lint   lint tier: go vet, a gofmt -l check and the
#                            optional-interface gate: it lists every type
#                            assertion to an interface type in non-test
#                            internal/ and d2.go (x.(T) expressions, not
#                            type switches) and fails on any whose type is
#                            not allowed below. An optional interface hides
#                            a code path from the codebase itself, so a new
#                            one must be argued onto this list:
#                              store.IdentityStore  durable engines keep the
#                                                   node's ring ID
#                              interface{ UseTracer(*tracing.Tracer) }
#                                                   the transport tracing hook
#                              Message              transport's message pools
#                                                   hand back any
#                              BatchPutBlockService until direction 2 (the
#                                                   fs write half)
#                              BatchPutter          until direction 2
#                                                   (store.Engine)
#                              SegmentReader        fs reads stream segments
#                                                   through the client's
#                                                   copying ReadSegment;
#                                                   BlockService cannot gain
#                                                   the method while bench/
#                                                   stays frozen (a change
#                                                   claiming a gain may not
#                                                   edit the benchmark).
#                                                   The entry and fs's
#                                                   GetSegment adapter go
#                                                   when direction 3's step
#                                                   0 lets bench's tracedSvc
#                                                   embed the service
#   scripts/verify.sh race   tier 2: tier 1 plus lint and the race
#                            detector (catches data races in the parallel
#                            experiment pool and the obs hot paths;
#                            several times slower)
#   scripts/verify.sh bench  tier 3: tier 1 plus one-second smoke runs
#                            of the real benchmark harness (bench/run.sh
#                            on the 5-node disk-engine ring): walk-small,
#                            write-sync (saves, stream writes, a node
#                            restart and the stream read-back) and
#                            stream-read; for each, a non-zero exit, a
#                            verification failure or any failed
#                            operation fails the tier (checks the harness
#                            and the paths it drives still work; not a
#                            performance measurement)
#   scripts/verify.sh ring   ring tier: the event-driven maintenance tests
#                            under -race -count=20 (sequential joins, a
#                            §6 move and a restart at a persisted ID on a
#                            16-node ring whose stabilize timer never
#                            fires must each leave every replica group
#                            right within 100 ms; the 2- and 3-node
#                            bootstraps; a settled ring runs 20 timer
#                            rounds and no event round) and the dead-hop
#                            fault test (one node of a 16-node frozen
#                            ring crashed: 1 000 client and 15 000 node
#                            lookups, none failing, every client lookup
#                            done in its first walk with no back-off;
#                            then the node restarts at its persisted ID
#                            and joins once), the dead-owner read test
#                            (the same frozen ring: 50 Gets and a
#                            five-segment ReadStream of the crashed
#                            node's range all served by its replicas
#                            with no retry round), the dead-owner write
#                            test (the same frozen ring: 50 Puts, 50
#                            Removes and a four-chunk PutMany of the
#                            range go to the live successor with no
#                            failed walk; 50 Gets then cost <= 2 RPCs
#                            each), then the ring tests
#                            that need whole replica groups right after
#                            a join, -count=20
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
#                            zero-allocation, and a second one for a bulk
#                            read (BenchmarkOwnedServePath: a MultiGet
#                            of 16 × 8 KB whose handler fills payloads from
#                            the payload pool) proving the transport
#                            returns owned payloads after the write, so
#                            serving block reads produces no garbage; it
#                            also runs the payload-ownership tests under
#                            -race (an unowned response never releases, a
#                            MultiGet naming one key twice gets two
#                            buffers, the TCP disk-node read hammer); it
#                            also prints the client
#                            read ladder's allocs/op (BenchmarkBatchedRead,
#                            mem ring; a figure to compare against the
#                            parent commit, not a gate)
#   scripts/verify.sh stream stream tier: the internal/fs stream tests
#                            under -race -count=10 (backpressure bounded
#                            by the constant window, at most 8 and at
#                            least 2 segment fetches in flight and none
#                            left running after Close
#                            (TestStreamWindowBoundsInflightFetches), one
#                            contract for inline and pipelined streams
#                            (TestStreamContract), early-close waste,
#                            cancellation; about 20 s), then once under
#                            -race the mid-stream node-kill e2e, the use-after-release e2e:
#                            1 000 recycled ReadSegment segments beside
#                            GetMany, Get and ReadFile reads whose kept
#                            bytes must not change) and the client read
#                            ladder's cost and dead-owner tests, plus two
#                            alloc gates: segment buffers recycle through
#                            the pool (BenchmarkStreamConsume, in-memory
#                            service, < 4 MB allocated per 8 MB streamed)
#                            and the client recycles its MultiGet
#                            response frames (BenchmarkStreamReadTCP, an
#                            8 MB ReadStream from a 3-node disk-engine TCP
#                            ring, <= 2 MB/op; 9.9 MB/op before segments
#                            went through ReadSegment)
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
#                            ack of single puts and hand-offs), the four
#                            delayed-removal tests ten times over under
#                            -race (the removal deadline is a logged
#                            engine write: it must outlive a holder's
#                            restart, yield to a put and never be pushed
#                            to another node), a 10 s crash-loop soak
#                            (repeated recover cycles with checkpoints
#                            interleaved), a 10 s WAL-replay fuzz pass,
#                            the alloc gate proving the indexed read
#                            path (ReadInto) stays zero-allocation, and
#                            the index memory gate: 200 000 random keys
#                            must cost at most 110 B and 0.2 heap objects
#                            per entry (BenchmarkIndexBytesPerEntry; its
#                            ns/op, one full GC with that index live, is
#                            printed, not gated)
#   scripts/verify.sh sim    sim tier: the simulator/live-node
#                            differential test (20 seeded schedules
#                            through simdht and a real mem-transport
#                            ring), the workers=1 vs workers=8
#                            determinism check and the byte-for-byte
#                            figure goldens, all under -race, plus the
#                            alloc gates proving simdht's replica-group
#                            and resync paths stay zero-allocation
#   scripts/verify.sh fs     fs tier: the fs package's tests under -race
#                            (the verified-root memo, shared decoded
#                            directories, directory-readahead and scan-
#                            readahead tests among them), then
#                            TestSharedReaderHandle under -race -count=20
#                            (8 goroutines on one read-only handle while a
#                            writer handle saves and syncs new versions),
#                            then the cold-scan gate — a fresh handle on a
#                            counting service lists a directory and reads
#                            its 16 files in order; more than
#                            fs_cold_calls service calls (root Get,
#                            directory Get, one inode GetMany, at most two
#                            content GetManys) fail the tier — then
#                            BenchmarkReadFileWarm — a ReadFile on a handle
#                            whose blocks are all cached, fs self time
#                            alone — printing its ns/op and allocs/op;
#                            allocs/op above fs_warm_allocs fails the tier
#                            — then BenchmarkReadFileParallel — 8 goroutines
#                            against one on one read-only handle, 200 us
#                            per service call; a speedup below
#                            fs_parallel_speedup fails the tier (a handle
#                            whose reads serialize reads about 1.0)
set -eu
cd "$(dirname "$0")/.."

# capture runs a command, keeps its stdout in $out for the gate that
# follows and prints it on stderr once the command ends. It writes to the
# descriptor the script already has: `tee /dev/stderr` would reopen it and
# truncate a log that holds stdout and stderr together. A failing command
# fails the tier.
capture() {
	status=0
	out=$("$@") || status=$?
	printf '%s\n' "$out" >&2
	return "$status"
}

lint() {
	echo "== lint: go vet ./... && gofmt -l ."
	go vet ./...
	fmt=$(gofmt -l .)
	if [ -n "$fmt" ]; then
		echo "gofmt: needs formatting:" >&2
		echo "$fmt" >&2
		exit 1
	fi
	echo "== lint: type assertions to interfaces"
	found=$(iface_asserts)
	echo "$found"
	bad=$(echo "$found" | grep -vxE '[^ ]+ (store\.IdentityStore|interface\{ UseTracer\(\*tracing\.Tracer\) \}|Message|BatchPutBlockService|BatchPutter|SegmentReader)' || true)
	if [ -n "$bad" ]; then
		echo "lint: type assertions to interfaces outside the allow-list in scripts/verify.sh:" >&2
		echo "$bad" >&2
		exit 1
	fi
}

# iface_asserts prints "file:line: type" for each x.(T) in non-test
# internal/ and d2.go whose T is an interface type, as go doc describes T.
# A qualified name go doc cannot resolve is printed too (so it must be
# allowed); an unqualified one it cannot find is a type parameter.
iface_asserts() {
	re='\.\((interface\{[^}]*\}|[A-Za-z_][A-Za-z0-9_.]*)\)'
	grep -rnE --include='*.go' --exclude='*_test.go' "$re" internal d2.go | while IFS= read -r hit; do
		file=${hit%%:*}
		rest=${hit#*:}
		where="$file:${rest%%:*}:"
		echo "$hit" | grep -oE "$re" | while IFS= read -r typ; do
			typ=${typ#.(}
			typ=${typ%)}
			case $typ in
			type) continue ;;
			interface*|error|any) ;;
			*.*)
				pkg=$(go list -f '{{join .Imports "\n"}}' "./$(dirname "$file")" | grep -E "(^|/)${typ%%.*}\$" | head -n 1)
				doc=$(go doc -u "$pkg.${typ#*.}" 2>/dev/null) || doc="type ${typ#*.} interface"
				echo "$doc" | grep -q "^type ${typ#*.} interface" || continue
				;;
			*)
				doc=$(go doc -u "./$(dirname "$file")" "$typ" 2>/dev/null) || continue
				echo "$doc" | grep -q "^type $typ interface" || continue
				;;
			esac
			echo "$where $typ"
		done
	done
}

if [ "${1:-}" = "lint" ]; then
	lint
	exit 0
fi

if [ "${1:-}" = "ring" ]; then
	echo "== ring tier: convergence by view changes alone, lookups, reads and writes around a dead node, -race -count=20"
	go test -race -count=20 -run '^(TestRingSettlesByEventsAlone|TestSettledRingRunsNoEventRounds|TestSuccessorNotifyIsNoPredecessor|TestLookupsRouteAroundDeadNode|TestReadsRouteAroundDeadOwner|TestWritesRouteAroundDeadOwner)$' ./internal/node/
	echo "== ring tier: tests that need whole replica groups after joins, -count=20"
	go test -count=20 -run \
		'^(TestDelayedRemove|TestWalkRingSkipsDeadMember|TestRestartedPrimaryRegainsItsBlocks|TestRejoinWithStaleSelfEntry)$' ./internal/node/
	exit 0
fi

if [ "${1:-}" = "trace" ]; then
	echo "== trace tier: tracing tests under -race"
	go test -race ./internal/obs/tracing/
	go test -race -run 'Trace' ./internal/obs/ ./internal/transport/ ./internal/node/ .
	echo "== trace tier: unsampled-path alloc guard (want 0 allocs/op)"
	capture go test -run '^$' -bench 'BenchmarkStartOpUnsampled' -benchmem \
		./internal/obs/tracing/
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
	echo "== wire tier: payload ownership tests under -race"
	go test -race -run 'Payload|Owned|Acquired|DistinctBuffers' ./internal/transport/ ./internal/node/ ./internal/store/ ./internal/wire/
	echo "== wire tier: codec fuzz (10s)"
	go test -run '^$' -fuzz 'FuzzCodecRoundTrip' -fuzztime 10s ./internal/transport/
	echo "== wire tier: TCP serve-path alloc guard (want 0 allocs/op)"
	capture go test -run '^$' -bench 'BenchmarkTCPServePath' -benchmem \
		./internal/transport/
	echo "$out" | grep -q 'BenchmarkTCPServePath.* 0 B/op[[:space:]]*0 allocs/op' || {
		echo "wire tier: TCP serve path allocates" >&2
		exit 1
	}
	echo "== wire tier: owned-payload serve-path alloc guard (want 0 allocs/op)"
	capture go test -run '^$' -bench 'BenchmarkOwnedServePath' -benchmem \
		./internal/transport/
	echo "$out" | grep -q 'BenchmarkOwnedServePath.* 0 allocs/op' || {
		echo "wire tier: owned-payload serve path allocates (payloads not recycled?)" >&2
		exit 1
	}
	echo "== wire tier: client read ladder allocs/op (report only; perblock = 64 single-key Gets)"
	go test -run '^$' -bench 'BenchmarkBatchedRead/transport=mem' -benchtime 100x -benchmem ./internal/node/ | grep 'allocs/op'
	exit 0
fi

if [ "${1:-}" = "stream" ]; then
	stream_tests='Stream|ReadSegment|ReadCacheByteCap|MissingKeysCostOneLadder|EveryOpSurvivesDeadCachedOwner'
	echo "== stream tier: fs stream tests under -race -count=10"
	go test -race -count=10 -run "$stream_tests|TestStreamContract|TestStreamWindowBoundsInflightFetches" ./internal/fs/
	echo "== stream tier: client and e2e stream tests under -race"
	go test -race -run "$stream_tests" ./internal/node/ .
	echo "== stream tier: consume-path alloc gate (want < 4 MB/op for an 8 MB stream)"
	capture go test -run '^$' -bench 'BenchmarkStreamConsume' -benchmem \
		./internal/fs/
	echo "$out" | awk '
		/BenchmarkStreamConsume/ { for (i = 2; i <= NF; i++) if ($i == "B/op") bytes = $(i-1) }
		END {
			if (bytes == "" || bytes + 0 >= 4194304) {
				print "stream tier: consume path allocated " bytes " B/op (segment pool regression?)" > "/dev/stderr"
				exit 1
			}
		}'
	# Measured before segments went through ReadSegment: 9.9 MB/op, nearly
	# all of it the client's MultiGet response frames.
	stream_tcp_bytes=2097152
	echo "== stream tier: TCP stream-read alloc gate (want <= $stream_tcp_bytes B/op for an 8 MB stream)"
	capture go test -run '^$' -bench 'BenchmarkStreamReadTCP' -benchmem .
	echo "$out" | awk -v max="$stream_tcp_bytes" '
		/BenchmarkStreamReadTCP/ { for (i = 2; i <= NF; i++) if ($i == "B/op") bytes = $(i-1) }
		END {
			if (bytes == "" || bytes + 0 > max + 0) {
				print "stream tier: a TCP stream read allocated " bytes " B/op (gate " max "; response frames not recycled?)" > "/dev/stderr"
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
	capture go test -run '^$' -bench 'BenchmarkSamplerTick|BenchmarkHealthEvaluate' -benchmem \
		./internal/obs/history/
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
	capture go test -run '^$' -bench 'BenchmarkSweepTick' -benchmem \
		./internal/obs/census/
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
	echo "== disk tier: delayed removals, -race -count=10"
	go test -race -count=10 -run \
		'^(TestDelayedRemove|TestPutCancelsPendingRemoval|TestDelayedRemoveSurvivesRestart)$' ./internal/node/
	go test -race -count=10 -run '^TestRewriteSurvivesRemoveDelay$' .
	echo "== disk tier: 10s crash-loop soak"
	D2_DISK_SOAK=10s go test -race -run 'TestCrashLoop' ./internal/store/disk/
	echo "== disk tier: WAL replay fuzz (10s)"
	go test -run '^$' -fuzz 'FuzzWALReplay' -fuzztime 10s ./internal/store/disk/
	echo "== disk tier: indexed-read alloc gate (want 0 allocs/op)"
	capture go test -run '^$' -bench 'BenchmarkDiskReadInto' -benchmem \
		./internal/store/disk/
	echo "$out" | grep -q 'BenchmarkDiskReadInto.* 0 B/op[[:space:]]*0 allocs/op' || {
		echo "disk tier: indexed read path allocates" >&2
		exit 1
	}
	echo "== disk tier: index memory gate (want <= 110 B/entry, <= 0.2 heap objects/entry)"
	capture go test -run '^$' -bench 'BenchmarkIndexBytesPerEntry' -benchtime 10x \
		./internal/store/disk/
	echo "$out" | awk '
		/BenchmarkIndexBytesPerEntry/ {
			for (i = 2; i <= NF; i++) {
				if ($i == "B/entry") b = $(i-1)
				if ($i == "objs/entry") o = $(i-1)
			}
		}
		END {
			if (b == "" || o == "" || b + 0 > 110 || o + 0 > 0.2) {
				print "disk tier: index holds " b " B and " o " heap objects per entry (gates 110, 0.2)" > "/dev/stderr"
				exit 1
			}
		}'
	exit 0
fi

if [ "${1:-}" = "sim" ]; then
	echo "== sim tier: differential, determinism and figure goldens under -race"
	go test -race -run 'TestDifferentialLiveRing' ./internal/simdht/
	go test -race -run 'TestParallelDeterminism|TestFiguresGolden' ./internal/experiments/
	echo "== sim tier: replica-group and resync alloc gates (want 0 allocs/op)"
	capture go test -run '^$' -bench 'BenchmarkReplicaNodes|BenchmarkNodeInGroup|BenchmarkResyncBlockStable' -benchmem \
		./internal/simdht/
	for b in BenchmarkReplicaNodes BenchmarkNodeInGroup BenchmarkResyncBlockStable; do
		echo "$out" | grep -q "$b.* 0 B/op[[:space:]]*0 allocs/op" || {
			echo "sim tier: $b allocates" >&2
			exit 1
		}
	done
	exit 0
fi

if [ "${1:-}" = "fs" ]; then
	# Measured value of the warm read: the path split, the walk's chain,
	# the directory's and the file's key cursors, the block list and the
	# assembled result.
	fs_warm_allocs=6
	# A cold directory scan: root Get, directory Get, one inode GetMany and
	# at most two content GetManys.
	fs_cold_calls=5
	# 8 goroutines on one read-only handle against one (7.5–7.9 measured
	# on 2 vCPUs; 1.0 when reads take the handle's lock).
	fs_parallel_speedup=6
	echo "== fs tier: fs tests under -race"
	go test -race ./internal/fs/
	echo "== fs tier: one read-only handle shared with a writer, -race -count=20"
	go test -race -count=20 -run '^TestSharedReaderHandle$' ./internal/fs/
	echo "== fs tier: cold directory scan gate (want <= $fs_cold_calls service calls)"
	capture go test -run '^TestColdScanServiceCalls$' -v ./internal/fs/
	echo "$out" | awk -v max="$fs_cold_calls" '
		{ for (i = 1; i <= NF; i++) if ($i ~ /^cold_scan_calls=/) { split($i, kv, "="); calls = kv[2] } }
		END {
			if (calls == "" || calls + 0 > max + 0) {
				print "fs tier: cold directory scan made " calls " service calls (gate " max ")" > "/dev/stderr"
				exit 1
			}
		}'
	echo "== fs tier: warm ReadFile alloc gate (want <= $fs_warm_allocs allocs/op)"
	capture go test -run '^$' -bench 'BenchmarkReadFileWarm' -benchmem \
		./internal/fs/
	echo "$out" | awk -v max="$fs_warm_allocs" '
		/BenchmarkReadFileWarm/ { for (i = 2; i <= NF; i++) if ($i == "allocs/op") allocs = $(i-1) }
		END {
			if (allocs == "" || allocs + 0 > max + 0) {
				print "fs tier: warm ReadFile made " allocs " allocs/op (gate " max ")" > "/dev/stderr"
				exit 1
			}
		}'
	echo "== fs tier: shared read-only handle gate (want >= ${fs_parallel_speedup}x one goroutine)"
	capture go test -run '^$' -bench 'BenchmarkReadFileParallel' -benchtime 3x \
		./internal/fs/
	echo "$out" | awk -v min="$fs_parallel_speedup" '
		/BenchmarkReadFileParallel/ { for (i = 2; i <= NF; i++) if ($i == "speedup") speedup = $(i-1) }
		END {
			if (speedup == "" || speedup + 0 < min + 0) {
				print "fs tier: 8 goroutines on one read-only handle ran " speedup "x one (gate " min ")" > "/dev/stderr"
				exit 1
			}
		}'
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
	for w in walk-small write-sync stream-read; do
		echo "== tier 3: benchmark harness smoke ($w, 1 s)"
		capture bash bench/run.sh --workload "$w" --seconds 1
		echo "$out" | tail -n 1 | grep -q '"correct":true,"attempted":[1-9][0-9]*,"failed":0,' || {
			echo "bench tier: $w reported a verification failure or failed operations" >&2
			exit 1
		}
	done
fi
