// Command d2node runs one live D2 DHT node over TCP. Start a first node,
// then join more to it:
//
//	d2node -bind 127.0.0.1:7001 -admin 127.0.0.1:8001
//	d2node -bind 127.0.0.1:7002 -seed 127.0.0.1:7001
//	d2node -bind 127.0.0.1:7003 -seed 127.0.0.1:7001 -balance 10m
//
// The -admin address serves the observability plane: /metrics (Prometheus
// text), /statsz (JSON), /eventz, /tracez, /healthz (the health engine's
// status document), /historyz (retained metric samples and derived
// rates), /ringz, and /debug/pprof/. Pass -trace-sample / -trace-slow to
// retain request traces; "d2ctl trace <file>" assembles them across
// nodes. Pass -flight-dir to enable the flight recorder: on a health
// transition, a slow request, or a peer death the node dumps a JSON
// diagnostic bundle (health, rates, recent events, triggering spans)
// there. Use cmd/d2ctl to read and write blocks and volumes ("d2ctl
// stats"/"top" build cluster-wide metric views; "d2ctl watch"/"doctor"
// build cluster-wide health views).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	d2 "github.com/defragdht/d2"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "d2node:", err)
		os.Exit(1)
	}
}

func run() error {
	bind := flag.String("bind", "127.0.0.1:0", "listen address")
	seed := flag.String("seed", "", "address of a ring member to join (empty = new ring)")
	replicas := flag.Int("replicas", 3, "replicas per block (r)")
	balance := flag.Duration("balance", 0, "load-balance probe interval (0 = off; paper uses 10m)")
	pointerStab := flag.Duration("pointer-stab", time.Hour, "pointer stabilization time")
	removeDelay := flag.Duration("remove-delay", 30*time.Second, "block removal delay")
	statsEvery := flag.Duration("stats", 30*time.Second, "stats print interval (0 = quiet)")
	admin := flag.String("admin", "", "admin/debug HTTP address (empty = off); serves /metrics, /statsz, /eventz, /tracez, /healthz, /ringz, /debug/pprof/")
	traceSample := flag.Int("trace-sample", 0, "keep 1 in N request traces (0 = off; forced traces always work)")
	traceSlow := flag.Duration("trace-slow", 0, "always keep traces of requests at least this slow (0 = off)")
	historyIv := flag.Duration("history-interval", 0, "health-engine sampling interval (0 = default 2s)")
	flightDir := flag.String("flight-dir", "", "directory for flight-recorder diagnostic bundles (empty = off)")
	dataDir := flag.String("data-dir", "", "durable storage directory (empty = in-memory; blocks and ring identity survive restarts)")
	fsync := flag.String("fsync", "always", "fsync policy with -data-dir: always (group commit), interval, never")
	fsyncIv := flag.Duration("fsync-interval", 0, "fsync timer period under -fsync interval (0 = default 100ms)")
	ckptBytes := flag.Int64("checkpoint-bytes", 0, "WAL size from which background compaction may run, once half the log is dead records (0 = default 64MiB)")
	flag.Parse()

	ctx := context.Background()
	nd, err := d2.StartNode(ctx, *bind, *seed, d2.NodeOptions{
		Replicas:             *replicas,
		BalanceInterval:      *balance,
		PointerStabilization: *pointerStab,
		RemoveDelay:          *removeDelay,
		TraceSampleEvery:     *traceSample,
		TraceSlowThreshold:   *traceSlow,
		HistoryInterval:      *historyIv,
		FlightDir:            *flightDir,
		DataDir:              *dataDir,
		Fsync:                *fsync,
		FsyncInterval:        *fsyncIv,
		CheckpointBytes:      *ckptBytes,
	})
	if err != nil {
		return err
	}
	fmt.Printf("d2node listening on %s (id %s)\n", nd.Addr(), nd.ID().Short())
	if *dataDir != "" {
		rec := nd.Recovery()
		fmt.Printf("recovered %d blocks, %d pointers from %s (%d records replayed, %d torn)\n",
			rec.Blocks, rec.Pointers, *dataDir, rec.Records, rec.TornRecords)
	}

	if *admin != "" {
		ln, err := net.Listen("tcp", *admin)
		if err != nil {
			_ = nd.Close()
			return fmt.Errorf("admin listen %s: %w", *admin, err)
		}
		defer ln.Close()
		go func() { _ = http.Serve(ln, nd.AdminHandler()) }()
		fmt.Printf("admin plane on http://%s/\n", ln.Addr())
	}

	stopStats := make(chan struct{})
	if *statsEvery > 0 {
		go func() {
			t := time.NewTicker(*statsEvery)
			defer t.Stop()
			for {
				select {
				case <-stopStats:
					return
				case <-t.C:
					fmt.Printf("stored: %d bytes\n", nd.StoredBytes())
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	close(stopStats)
	if *dataDir != "" {
		// A durable node keeps its arc: flush, close, and let the restart
		// rejoin at the same ring position with its blocks intact.
		fmt.Println("flushing and shutting down (data kept in", *dataDir+")...")
		return nd.Close()
	}
	fmt.Println("leaving ring...")
	leaveCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	return nd.Leave(leaveCtx)
}
