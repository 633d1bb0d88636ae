package wire

import "sync"

// Block payload buffers, recycled across reads. A node serving a block
// read copies the stored bytes into a buffer from Payload, the transport
// writes it to the socket, and ReleasePayload hands it back for the next
// read — so a busy server's read path stops producing garbage. The pool
// lives here, below both the store engines that fill the buffers and the
// transport that releases them.
//
// Sizes up to 8 KB (D2's block size) round up to one of four power-of-two
// classes, 1 KB to 8 KB; anything larger is a plain make and never pooled.
// Each class pools fixed-size array pointers, so neither Payload nor
// ReleasePayload boxes a slice header.
var payloadPools [4]sync.Pool

// payloadClass returns the pool class serving n bytes, -1 for none.
func payloadClass(n int) int {
	for c := 0; c < len(payloadPools); c++ {
		if n <= 1<<(10+c) {
			return c
		}
	}
	return -1
}

// Payload returns a buffer of length n whose bytes are undefined: the
// caller fills it. It is the caller's own until handed to ReleasePayload.
func Payload(n int) []byte {
	c := payloadClass(n)
	if c < 0 {
		return make([]byte, n)
	}
	switch a := payloadPools[c].Get().(type) {
	case *[1 << 10]byte:
		return a[:n]
	case *[2 << 10]byte:
		return a[:n]
	case *[4 << 10]byte:
		return a[:n]
	case *[8 << 10]byte:
		return a[:n]
	}
	return make([]byte, n, 1<<(10+c))
}

// ReleasePayload returns b to the pool. The caller must hold the only
// reference to b's bytes: after the call the next Payload may hand them
// to another reader. A buffer whose capacity is not exactly a class size
// did not come from Payload and is left to the garbage collector.
func ReleasePayload(b []byte) {
	b = b[:cap(b)]
	switch len(b) {
	case 1 << 10:
		payloadPools[0].Put((*[1 << 10]byte)(b))
	case 2 << 10:
		payloadPools[1].Put((*[2 << 10]byte)(b))
	case 4 << 10:
		payloadPools[2].Put((*[4 << 10]byte)(b))
	case 8 << 10:
		payloadPools[3].Put((*[8 << 10]byte)(b))
	}
}
