package transport

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"testing"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs/tracing"
	"github.com/defragdht/d2/internal/wire"
)

// benchMessages is the per-type benchmark matrix; FetchRangeResp/64 is
// the bulk-migration shape the vectored writer exists for.
func benchMessages() []struct {
	name string
	msg  Message
} {
	blk := bytes.Repeat([]byte{0xAB}, 4<<10)
	items := make([]BatchItem, 64)
	for i := range items {
		items[i] = BatchItem{Key: testKey(byte(i)), Found: true, Data: bytes.Repeat([]byte{byte(i)}, 1<<10)}
	}
	spans := make([]tracing.Span, 16)
	for i := range spans {
		spans[i] = tracing.Span{Trace: 1, ID: uint64(i), Parent: 3, Name: "rpc.get", Node: "n1", Start: 1000, Dur: 50}
	}
	return []struct {
		name string
		msg  Message
	}{
		{"PingReq", &PingReq{}},
		{"GetReq", &GetReq{Key: testKey(1)}},
		{"PutReq/4KiB", &PutReq{Key: testKey(2), Data: blk, TTL: 60}},
		{"GetResp/4KiB", &GetResp{Found: true, Data: blk}},
		{"NeighborsResp", &NeighborsResp{Self: testPeer(1), Pred: testPeer(2), Succs: []PeerInfo{testPeer(3), testPeer(4), testPeer(5)}}},
		{"MultiGetReq/16", &MultiGetReq{Keys: make([]keys.Key, 16)}},
		{"FetchRangeResp/64", &FetchRangeResp{Items: items}},
		{"TraceFetchResp/16", &TraceFetchResp{Spans: spans}},
	}
}

func BenchmarkEncode(b *testing.B) {
	for _, bm := range benchMessages() {
		b.Run(bm.name, func(b *testing.B) {
			e := getEncoder()
			defer putEncoder(e)
			var total int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.encode(uint64(i), 0, 0, "127.0.0.1:7000", bm.msg, false); err != nil {
					b.Fatal(err)
				}
				total += int64(e.size())
			}
			b.SetBytes(total / int64(b.N))
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, bm := range benchMessages() {
		b.Run(bm.name, func(b *testing.B) {
			frame := encodeFrame(b, 1, 0, 0, "127.0.0.1:7000", bm.msg, false)
			body := frame[4:]
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, err := parseFrame(body)
				if err != nil {
					b.Fatal(err)
				}
				m, err := decodeMessage(h.typ, h.body)
				if err != nil {
					b.Fatal(err)
				}
				recycleMessage(m)
			}
		})
	}
}

func BenchmarkChecksum(b *testing.B) {
	buf := bytes.Repeat([]byte{0x5A}, 64<<10)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire.Checksum(buf)
	}
}

// BenchmarkTCPServePath drives a live TCP server from a raw socket with
// pre-encoded request frames, so allocs/op is the server's inbound
// read→decode→handle→encode→writev path plus nothing else. The verify
// tier gates this at 0 allocs/op.
func BenchmarkTCPServePath(b *testing.B) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	resp := &GetResp{Found: true, Data: bytes.Repeat([]byte{0xCD}, 512)}
	srv.Serve(func(context.Context, Addr, Message) (Message, error) {
		return resp, nil
	})

	conn, err := net.Dial("tcp", string(srv.Addr()))
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	req := encodeFrame(b, 1, 0, 0, "bench:1", &GetReq{Key: testKey(1)}, false)
	br := bufio.NewReaderSize(conn, 64<<10)
	var lenb [4]byte
	respBuf := make([]byte, 4096)

	// Prime the connection once so one-time costs (conn bookkeeping,
	// first worker spawn, iovec cache) land before the measured loop.
	if _, err := conn.Write(req); err != nil {
		b.Fatal(err)
	}
	if _, err := io.ReadFull(br, lenb[:]); err != nil {
		b.Fatal(err)
	}
	if _, err := io.ReadFull(br, respBuf[:wire.U32(lenb[:], 0)]); err != nil {
		b.Fatal(err)
	}

	b.SetBytes(int64(len(req)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(req); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(br, lenb[:]); err != nil {
			b.Fatal(err)
		}
		n := int(wire.U32(lenb[:], 0))
		if n > len(respBuf) {
			b.Fatalf("response frame of %d bytes", n)
		}
		if _, err := io.ReadFull(br, respBuf[:n]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOwnedServePath is BenchmarkTCPServePath for a bulk read:
// a MultiGet of 16 × 8 KB whose handler fills each payload from the
// payload pool and marks the response as owning them, as a node's read
// handlers do. The transport returns the payloads once the frame is
// written, so the serve side stays allocation-free; the verify tier gates
// this at 0 allocs/op.
func BenchmarkOwnedServePath(b *testing.B) {
	const nkeys, size = 16, 8 << 10
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	src := bytes.Repeat([]byte{0xCD}, size)
	srv.Serve(func(_ context.Context, _ Addr, m Message) (Message, error) {
		req := m.(*MultiGetReq)
		resp := AcquireMultiGetResp()
		resp.OwnPayloads()
		for _, k := range req.Keys {
			data := wire.Payload(size)
			copy(data, src)
			resp.Items = append(resp.Items, BatchItem{Key: k, Found: true, Data: data})
		}
		return resp, nil
	})

	conn, err := net.Dial("tcp", string(srv.Addr()))
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	ks := make([]keys.Key, nkeys)
	for i := range ks {
		ks[i] = testKey(byte(i))
	}
	req := encodeFrame(b, 1, 0, 0, "bench:1", &MultiGetReq{Keys: ks}, false)
	br := bufio.NewReaderSize(conn, 64<<10)
	var lenb [4]byte
	respBuf := make([]byte, 2*nkeys*size)
	roundTrip := func() {
		if _, err := conn.Write(req); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(br, lenb[:]); err != nil {
			b.Fatal(err)
		}
		n := int(wire.U32(lenb[:], 0))
		if n > len(respBuf) {
			b.Fatalf("response frame of %d bytes", n)
		}
		if _, err := io.ReadFull(br, respBuf[:n]); err != nil {
			b.Fatal(err)
		}
	}
	roundTrip() // one-time costs land before the measured loop

	b.SetBytes(nkeys * size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}
