package transport

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs/tracing"
	"github.com/defragdht/d2/internal/wire"
)

// testKey builds a deterministic key from a seed byte.
func testKey(seed byte) (k keys.Key) {
	for i := range k {
		k[i] = seed + byte(i)
	}
	return k
}

func testPeer(seed byte) PeerInfo {
	return PeerInfo{ID: testKey(seed), Addr: Addr(fmt.Sprintf("10.0.0.%d:7000", seed))}
}

// encodeFrame flattens one message into complete frame bytes (length
// prefix included) using the production encoder.
func encodeFrame(t testing.TB, tag, trace, span uint64, from Addr, m Message, crc bool) []byte {
	t.Helper()
	e := getEncoder()
	defer putEncoder(e)
	if err := e.encode(tag, trace, span, from, m, crc); err != nil {
		t.Fatalf("encode %T: %v", m, err)
	}
	return e.appendBytes(nil)
}

// decodeFrame parses complete frame bytes back into a message.
func decodeFrame(frame []byte) (frameHeader, Message, error) {
	if len(frame) < 4 {
		return frameHeader{}, nil, wire.ErrTruncated
	}
	if got := int(wire.U32(frame, 0)); got != len(frame)-4 {
		return frameHeader{}, nil, fmt.Errorf("length prefix %d != %d", got, len(frame)-4)
	}
	h, err := parseFrame(frame[4:])
	if err != nil {
		return h, nil, err
	}
	m, err := decodeMessage(h.typ, h.body)
	return h, m, err
}

// sampleMessages covers every wire type with representative field values,
// including payloads above and below the vectoring threshold.
func sampleMessages() []Message {
	big := bytes.Repeat([]byte{0xEE}, vectorMin*3) // forces writev cuts
	return []Message{
		&PingReq{},
		&PingResp{Self: testPeer(1)},
		&FindSuccReq{Key: testKey(2)},
		&FindSuccResp{Done: true, Node: testPeer(3), Pred: testPeer(4)},
		&NeighborsReq{},
		&NeighborsResp{Self: testPeer(5), Pred: testPeer(6), Succs: []PeerInfo{testPeer(7), testPeer(8), testPeer(9)}},
		&NotifyReq{Cand: testPeer(10)},
		&NotifyResp{},
		&PutReq{Key: testKey(11), Data: []byte("small-block"), Replicate: true, TTL: 3600},
		&PutReq{Key: testKey(12), Data: big},
		&PutResp{},
		&GetReq{Key: testKey(13)},
		&GetResp{Found: true, Data: []byte("payload")},
		&GetResp{Redirect: "10.9.9.9:7000"},
		&RemoveReq{Key: testKey(14), DelaySec: 30, Replicate: true},
		&RemoveResp{},
		&LoadReq{},
		&LoadResp{Self: testPeer(15), RespBytes: 1 << 30, StoredBytes: 42},
		&SplitReq{},
		&SplitResp{Ok: true, Median: testKey(16)},
		&RangeReq{Lo: testKey(17), Hi: testKey(18), WithData: true, WithPointers: true, Limit: 128},
		&RangeResp{Items: []RangeItem{
			{Key: testKey(19), Size: 7, Data: []byte("range-a")},
			{Key: testKey(20), Size: int64(len(big)), Data: big, Pointer: "10.1.1.1:7000"},
		}},
		&MultiGetReq{Keys: []keys.Key{testKey(21), testKey(22), testKey(23)}},
		&MultiGetResp{Items: []BatchItem{
			{Key: testKey(24), Found: true, Data: []byte("mg")},
			{Key: testKey(25), Redirect: "10.2.2.2:7000"},
		}},
		&FetchRangeReq{Lo: testKey(26), Hi: testKey(27), Limit: 64},
		&FetchRangeResp{More: true, Items: []BatchItem{
			{Key: testKey(28), Found: true, Data: big},
			{Key: testKey(29), Found: true, Data: []byte("fr")},
		}},
		&PutPtrReq{Key: testKey(30), Target: "10.3.3.3:7000", Size: 4096},
		&PutPtrResp{},
		&SampleReq{Hops: 5},
		&SampleResp{Peer: testPeer(31)},
		&StatsReq{},
		&StatsResp{Self: testPeer(32), Pred: testPeer(33), RespBytes: 1, StoredBytes: 2, Blocks: 3, SnapshotJSON: []byte(`{"x":1}`)},
		&TraceFetchReq{Trace: 0xDEADBEEF, Limit: 100},
		&TraceFetchResp{Spans: []tracing.Span{
			{Trace: 1, ID: 2, Parent: 3, Name: "rpc.get", Node: "n1", Start: 1000, Dur: 50, Attrs: "k=v"},
			{Trace: 1, ID: 4, Name: "store.read", Node: "n2", Start: 1050, Dur: 10},
		}},
		&ErrResp{Err: "not the owner"},
		&MultiPutReq{
			Keys:      []keys.Key{testKey(34), testKey(35), testKey(36)},
			Data:      [][]byte{[]byte("mp-small"), big, nil},
			Replicate: true, TTL: 90,
		},
		&MultiPutResp{},
	}
}

// TestCodecRoundTripAll encodes every message type and decodes it back,
// checking header fields and full struct equality, with and without CRC.
func TestCodecRoundTripAll(t *testing.T) {
	for _, crc := range []bool{false, true} {
		for _, m := range sampleMessages() {
			name := fmt.Sprintf("%T/crc=%v", m, crc)
			frame := encodeFrame(t, 7, 0xABCD, 0x1234, "127.0.0.1:9999", m, crc)
			h, got, err := decodeFrame(frame)
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			if h.tag != 7 || h.trace != 0xABCD || h.span != 0x1234 || string(h.from) != "127.0.0.1:9999" {
				t.Fatalf("%s: header = %+v", name, h)
			}
			if wantCRC := h.flags&flagCRC != 0; wantCRC != crc {
				t.Fatalf("%s: crc flag = %v", name, wantCRC)
			}
			if !reflect.DeepEqual(got, m) {
				t.Fatalf("%s:\n got %+v\nwant %+v", name, got, m)
			}
		}
	}
}

// TestCodecRoundTripRecycled re-decodes into recycled pooled structs to
// prove no stale field survives reuse (the aliasing hazard of pooling).
func TestCodecRoundTripRecycled(t *testing.T) {
	wide := &NeighborsResp{Self: testPeer(40), Pred: testPeer(41), Succs: []PeerInfo{testPeer(42), testPeer(43), testPeer(44), testPeer(45)}}
	narrow := &NeighborsResp{Self: testPeer(50), Pred: testPeer(51), Succs: []PeerInfo{testPeer(52)}}
	for i := 0; i < 4; i++ {
		for _, m := range []Message{wide, narrow} {
			frame := encodeFrame(t, 1, 0, 0, "a", m, false)
			_, got, err := decodeFrame(frame)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, m) {
				t.Fatalf("round %d:\n got %+v\nwant %+v", i, got, m)
			}
			recycleMessage(got)
		}
	}
}

// goldenFrames pins the v1 wire encoding byte for byte. If one of these
// fails, the change is a wire-protocol break: bump wireVersion and add a
// new fixture set instead of editing these.
var goldenFrames = []struct {
	name string
	msg  Message
	hex  string
}{
	{
		name: "PingReq",
		msg:  &PingReq{},
		hex:  "0000001d01000101000000000000002a000000000000000000000000000000006e",
	},
	{
		name: "GetReq",
		msg:  &GetReq{Key: testKey(3)},
		hex: "0000005d01000b01000000000000002a000000000000000000000000000000006e" +
			"030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f2021222324" +
			"25262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f404142",
	},
	{
		name: "PutReq",
		msg:  &PutReq{Key: testKey(5), Data: []byte("block"), Replicate: true, TTL: 60},
		hex: "0000006f01000901000000000000002a000000000000000000000000000000006e" +
			"05060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20212223242526" +
			"2728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f4041424344" +
			"01000000000000003c00000005626c6f636b",
	},
	{
		name: "FindSuccResp",
		msg:  &FindSuccResp{Done: true, Node: testPeer(1), Pred: testPeer(2)},
		hex: "000000bc01000401000000000000002a000000000000000000000000000000006e01" +
			"0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122" +
			"232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f40" +
			"000d31302e302e302e313a37303030" +
			"02030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20212223" +
			"2425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f4041" +
			"000d31302e302e302e323a37303030",
	},
	{
		name: "FetchRangeResp",
		msg:  &FetchRangeResp{More: true, Items: []BatchItem{{Key: testKey(9), Found: true, Data: []byte("it")}}},
		hex: "0000006b01001801000000000000002a000000000000000000000000000000006e" +
			"0100000001" +
			"090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20212223242526272829" +
			"2a2b2c2d2e2f303132333435363738393a3b3c3d3e3f4041424344454647" +
			"48010000000000026974",
	},
	{
		name: "ErrResp",
		msg:  &ErrResp{Err: "boom"},
		hex:  "0000002501002101000000000000002a000000000000000000000000000000006e00000004626f6f6d",
	},
	{
		name: "MultiPutReq",
		msg: &MultiPutReq{
			Keys: []keys.Key{testKey(6), testKey(7)}, Data: [][]byte{[]byte("b1"), []byte("blk2")},
			Replicate: true, TTL: 60,
		},
		hex: "000000b801002601000000000000002a000000000000000000000000000000006e" +
			"01000000000000003c00000002" +
			"060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f2021222324252627" +
			"28292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445" +
			"000000026231" +
			"0708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728" +
			"292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f40414243444546" +
			"00000004626c6b32",
	},
	{
		name: "MultiPutResp",
		msg:  &MultiPutResp{},
		hex:  "0000001d01002701000000000000002a000000000000000000000000000000006e",
	},
}

// TestCodecGoldenV1 checks pinned fixtures; regenerate with -run
// TestCodecGoldenV1 -v on mismatch and inspect the diff before accepting.
func TestCodecGoldenV1(t *testing.T) {
	for _, g := range goldenFrames {
		frame := encodeFrame(t, 42, 0, 0, "n", g.msg, false)
		if g.hex == "" {
			t.Errorf("%s: missing fixture; actual: %x", g.name, frame)
			continue
		}
		want, err := hex.DecodeString(strings.ReplaceAll(g.hex, "\n", ""))
		if err != nil {
			t.Fatalf("%s: bad fixture hex: %v", g.name, err)
		}
		if !bytes.Equal(frame, want) {
			t.Errorf("%s: encoding changed (wire break!)\n got %x\nwant %x", g.name, frame, want)
		}
		// And the fixture must still decode to the same message.
		_, m, err := decodeFrame(want)
		if err != nil {
			t.Fatalf("%s: fixture no longer decodes: %v", g.name, err)
		}
		if !reflect.DeepEqual(m, g.msg) {
			t.Errorf("%s: fixture decodes to %+v, want %+v", g.name, m, g.msg)
		}
	}
}

// TestCodecTruncatedRejected checks that every strict prefix of a valid
// frame is rejected with an error — never a panic, never a bogus message.
func TestCodecTruncatedRejected(t *testing.T) {
	for _, m := range sampleMessages() {
		frame := encodeFrame(t, 9, 1, 2, "127.0.0.1:7000", m, true)
		for cut := 4; cut < len(frame); cut++ {
			if h, err := parseFrame(frame[4:cut]); err == nil {
				if _, err := decodeMessage(h.typ, h.body); err == nil {
					t.Fatalf("%T: prefix of %d/%d bytes decoded successfully", m, cut, len(frame))
				}
			}
		}
	}
}

// TestCodecMalformedRejected covers the corrupt-frame cases one at a time.
func TestCodecMalformedRejected(t *testing.T) {
	valid := encodeFrame(t, 1, 0, 0, "a", &GetReq{Key: testKey(1)}, false)

	t.Run("wrong version", func(t *testing.T) {
		f := append([]byte(nil), valid...)
		f[4] = wireVersion + 1
		if _, _, err := decodeFrame(f); !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("unknown type", func(t *testing.T) {
		for _, typ := range []byte{tInvalid, numWireTypes, 0xFF} {
			f := append([]byte(nil), valid...)
			f[6] = typ
			if _, _, err := decodeFrame(f); !errors.Is(err, wire.ErrMalformed) {
				t.Fatalf("type %d: err = %v", typ, err)
			}
		}
	})
	t.Run("crc mismatch", func(t *testing.T) {
		f := encodeFrame(t, 1, 0, 0, "a", &PutReq{Key: testKey(2), Data: []byte("block")}, true)
		f[len(f)-5] ^= 0x40 // flip a payload bit under the CRC
		if _, _, err := decodeFrame(f); err == nil || !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		f := append([]byte(nil), valid...)
		f = append(f, 0xAA)
		wire.PutU32(f, 0, uint32(len(f)-4))
		if _, _, err := decodeFrame(f); !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("hostile count", func(t *testing.T) {
		// A MultiGetReq claiming 2^32-1 keys in a tiny body must be
		// rejected by the count guard without attempting the allocation.
		body := wire.AppendU32(nil, 0xFFFFFFFF)
		if _, err := decodeMessage(tMultiGetReq, body); !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("err = %v", err)
		}
		// The same for a MultiPutReq: replicate, TTL, then the count.
		body = wire.AppendU32(wire.AppendI64(wire.AppendBool(nil, true), 0), 0xFFFFFFFF)
		if _, err := decodeMessage(tMultiPutReq, body); !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("MultiPutReq: err = %v", err)
		}
	})
	t.Run("non-canonical bool", func(t *testing.T) {
		f := append([]byte(nil), encodeFrame(t, 1, 0, 0, "a", &FindSuccResp{Done: true, Node: testPeer(1), Pred: testPeer(2)}, false)...)
		f[frameHeaderLen+1] = 2 // Done byte, after the 1-byte from addr
		if _, _, err := decodeFrame(f); !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("oversized encode", func(t *testing.T) {
		e := getEncoder()
		defer putEncoder(e)
		huge := make([]byte, maxFrame+1)
		if err := e.encode(1, 0, 0, "a", &PutReq{Data: huge}, false); err == nil {
			t.Fatal("oversized frame encoded")
		}
	})
}

// FuzzCodecRoundTrip decodes arbitrary frame bytes; whenever they parse,
// the message is re-encoded and must survive a second round trip with a
// byte-identical encoding (canonical form is a fixed point). No input may
// panic or allocate unboundedly.
func FuzzCodecRoundTrip(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(encodeFrame(f, 3, 5, 7, "seed:1", m, false)[4:])
		f.Add(encodeFrame(f, 3, 5, 7, "seed:1", m, true)[4:])
	}
	f.Add([]byte{wireVersion, 0, tPingReq, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFrame {
			return // the transport's read loop rejects these before parse
		}
		h, err := parseFrame(data)
		if err != nil {
			return
		}
		m, err := decodeMessage(h.typ, h.body)
		if err != nil {
			return
		}
		crc := h.flags&flagCRC != 0
		once := encodeFrame(t, h.tag, h.trace, h.span, Addr(h.from), m, crc)
		_, m2, err := decodeFrame(once)
		if err != nil {
			t.Fatalf("re-decode of canonical frame failed: %v", err)
		}
		twice := encodeFrame(t, h.tag, h.trace, h.span, Addr(h.from), m2, crc)
		if !bytes.Equal(once, twice) {
			t.Fatalf("canonical encoding not a fixed point:\n %x\n %x", once, twice)
		}
	})
}
