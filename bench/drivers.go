package main

import (
	"context"
	"fmt"
	"time"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/lookupcache"
	"github.com/defragdht/d2/internal/node"
	"github.com/defragdht/d2/internal/transport"
)

// Direct layer drivers measure what the ring trace cannot isolate: one
// layer alone, fed a fixed input for a fixed time, reported in the same
// document as everything else.

// driveLookupCache replays the workload's own key stream through
// Cache.Lookup against a cache holding the ring's arcs, and reports
// nanoseconds per lookup.
func driveLookupCache(members []node.RingMember, stream []keys.Key, d time.Duration) (nsPerLookup float64, lookups int64) {
	if len(stream) == 0 || len(members) == 0 {
		return 0, 0
	}
	cache := lookupcache.New[transport.PeerInfo](0)
	for _, m := range members {
		cache.Insert(m.Pred.ID, m.Self.ID, m.Self, 0)
	}
	start := time.Now()
	for time.Since(start) < d {
		for _, k := range stream {
			cache.Lookup(k, time.Second)
		}
		lookups += int64(len(stream))
	}
	return float64(time.Since(start)) / float64(lookups), lookups
}

// echo block sizes: an 8 KB PutReq is the small message every write
// sends; a 16 × 8 KB MultiGetResp is one stream segment.
const (
	echoBlock     = 8 << 10
	echoBulkItems = 16
)

// driveEcho runs two TCP endpoints against a handler that does nothing:
// what remains is the transport — codec, framing, socket, scheduling.
func driveEcho(ctx context.Context, d time.Duration) (rttUs float64, rtts int64, bulkMBps float64, bulks int64, err error) {
	srv, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer srv.Close()
	cli, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer cli.Close()
	block := make([]byte, echoBlock)
	srv.Serve(func(_ context.Context, _ transport.Addr, req transport.Message) (transport.Message, error) {
		switch v := req.(type) {
		case *transport.PutReq:
			return &transport.PutResp{}, nil
		case *transport.MultiGetReq:
			// Pooled, as node.handleMultiGet builds it: the transport
			// recycles the response once the frame is written.
			resp := transport.AcquireMultiGetResp()
			for _, k := range v.Keys {
				resp.Items = append(resp.Items, transport.BatchItem{Key: k, Found: true, Data: block})
			}
			return resp, nil
		}
		return nil, fmt.Errorf("echo: unexpected %T", req)
	})

	put := &transport.PutReq{Data: block}
	var lat []int64
	for start := time.Now(); time.Since(start) < d; {
		t0 := time.Now()
		if _, err := transport.Expect[*transport.PutResp](cli.Call(ctx, srv.Addr(), put)); err != nil {
			return 0, 0, 0, 0, fmt.Errorf("echo put: %w", err)
		}
		lat = append(lat, int64(time.Since(t0)))
	}
	rtts = int64(len(lat))
	rttUs = quantile(durationsMs(lat), 0.5) * 1e3

	get := &transport.MultiGetReq{Keys: make([]keys.Key, echoBulkItems)}
	start := time.Now()
	var bytes int64
	for time.Since(start) < d {
		resp, err := transport.Expect[*transport.MultiGetResp](cli.Call(ctx, srv.Addr(), get))
		if err != nil {
			return 0, 0, 0, 0, fmt.Errorf("echo multiget: %w", err)
		}
		for i := range resp.Items {
			bytes += int64(len(resp.Items[i].Data))
		}
		bulks++
	}
	bulkMBps = float64(bytes) / 1e6 / time.Since(start).Seconds()
	return rttUs, rtts, bulkMBps, bulks, nil
}
