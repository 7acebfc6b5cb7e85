package protocol

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// randFrame generates a random well-formed frame of each kind in turn.
func randFrame(rng *rand.Rand, kind FrameKind) Frame {
	f := func() float64 {
		// Mix magnitudes, signs, and exact zeros; always finite.
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return rng.Float64() * 1e-9
		case 2:
			return (rng.Float64() - 0.5) * 1e6
		default:
			return rng.NormFloat64()
		}
	}
	str := func(max int) string {
		n := rng.Intn(max + 1)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(byte(rng.Intn(256)))
		}
		return b.String()
	}
	switch kind {
	case FrameHello:
		min := uint16(rng.Intn(4))
		return Hello{
			MinVersion: min,
			MaxVersion: min + uint16(rng.Intn(65536-int(min))),
			Clock:      ClockMode(rng.Intn(2)),
			Client:     str(64),
		}
	case FrameWelcome:
		return Welcome{
			Version:  uint16(rng.Intn(65536)),
			Policy:   str(32),
			Geometry: Geometry(rng.Intn(2)),
			Node:     rng.Uint32(),
		}
	case FrameRequest:
		return Request{
			T:            f(),
			VehicleID:    rng.Int63() - rng.Int63(),
			Seq:          rng.Uint32(),
			Approach:     uint8(rng.Intn(4)),
			Lane:         uint8(rng.Intn(256)),
			Turn:         uint8(rng.Intn(3)),
			CurrentSpeed: f(),
			DistToEntry:  f(),
			TransmitTime: f(),
			Committed:    rng.Intn(2) == 1,
			ProposedToA:  f(),
			CrossSpeed:   f(),
			MaxSpeed:     f(),
			MaxAccel:     f(),
			MaxDecel:     f(),
			Length:       f(),
			Width:        f(),
			Wheelbase:    f(),
		}
	case FrameGrant:
		return Grant{
			T:           f(),
			VehicleID:   rng.Int63() - rng.Int63(),
			RespKind:    uint8(rng.Intn(4)),
			Seq:         rng.Uint32(),
			TargetSpeed: f(),
			ExecuteAt:   f(),
			ArriveAt:    f(),
		}
	case FrameExit:
		return Exit{T: f(), VehicleID: rng.Int63(), ExitTimestamp: f()}
	case FrameAck:
		return Ack{T: f(), VehicleID: rng.Int63(), ExitTimestamp: f()}
	case FrameSync:
		return Sync{T: f(), VehicleID: rng.Int63(), T1: f(), T2: f(), T3: f()}
	case FrameSyncReply:
		return SyncReply{T: f(), VehicleID: rng.Int63(), T1: f(), T2: f(), T3: f()}
	case FrameError:
		return Error{Code: uint16(rng.Intn(65536)), Msg: str(128)}
	case FrameBye:
		return Bye{Reason: str(64)}
	case FrameBatch:
		injectable := []FrameKind{FrameRequest, FrameExit, FrameSync}
		n := 1 + rng.Intn(5)
		items := make([]BatchItem, n)
		for i := range items {
			items[i] = BatchItem{
				Node: rng.Uint32(),
				F:    randFrame(rng, injectable[rng.Intn(len(injectable))]),
			}
		}
		return Batch{Seq: rng.Uint32(), Items: items}
	case FrameBatchReply:
		replies := []FrameKind{FrameGrant, FrameAck, FrameSyncReply}
		n := 1 + rng.Intn(5)
		items := make([]BatchItem, n)
		for i := range items {
			items[i] = BatchItem{
				Node: rng.Uint32(),
				F:    randFrame(rng, replies[rng.Intn(len(replies))]),
			}
		}
		return BatchReply{Seq: rng.Uint32(), Items: items}
	case FrameTopo:
		return Topo{
			Rows:       1 + uint16(rng.Intn(64)),
			Cols:       1 + uint16(rng.Intn(64)),
			SegmentLen: float64(rng.Intn(200)),
		}
	}
	panic("unreachable")
}

var allKinds = []FrameKind{
	FrameHello, FrameWelcome, FrameRequest, FrameGrant, FrameExit,
	FrameAck, FrameSync, FrameSyncReply, FrameError, FrameBye,
	FrameBatch, FrameBatchReply, FrameTopo,
}

// TestRoundTripProperty encodes and decodes thousands of randomized frames
// of every kind and demands exact equality.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 2000; iter++ {
		for _, kind := range allKinds {
			in := randFrame(rng, kind)
			b, err := Encode(in)
			if err != nil {
				t.Fatalf("encode %s: %v (frame %+v)", kind, err, in)
			}
			out, n, err := Decode(b)
			if err != nil {
				t.Fatalf("decode %s: %v", kind, err)
			}
			if n != len(b) {
				t.Fatalf("decode %s consumed %d of %d bytes", kind, n, len(b))
			}
			if !reflect.DeepEqual(in, out) {
				t.Fatalf("%s round trip:\n in: %+v\nout: %+v", kind, in, out)
			}
		}
	}
}

// TestCanonicalEncoding demands that re-encoding a decoded frame reproduces
// the original bytes — the property the conformance bridge relies on.
func TestCanonicalEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 500; iter++ {
		for _, kind := range allKinds {
			in := randFrame(rng, kind)
			b1, err := Encode(in)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			out, _, err := Decode(b1)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			b2, err := Encode(out)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatalf("%s not canonical:\n b1 %x\n b2 %x", kind, b1, b2)
			}
		}
	}
}

func TestDecodeTruncations(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, kind := range allKinds {
		in := randFrame(rng, kind)
		b, err := Encode(in)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		// Every strict prefix must fail with ErrUnexpectedEOF (header/body
		// short) and never panic.
		for n := 0; n < len(b); n++ {
			if _, _, err := Decode(b[:n]); err == nil {
				t.Fatalf("%s: decode of %d/%d-byte prefix succeeded", kind, n, len(b))
			}
		}
		// A trailing byte inside the frame body must be rejected too.
		grown := append([]byte(nil), b...)
		grown = append(grown, 0)
		// Fix up the length prefix to cover the extra byte.
		grown[3]++
		if _, _, err := Decode(grown); err == nil {
			t.Fatalf("%s: decode accepted trailing byte", kind)
		}
	}
}

func TestDecodeRejectsNonFinite(t *testing.T) {
	g := Grant{T: 1, VehicleID: 2, RespKind: 1, TargetSpeed: 3}
	b, err := Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	// T is the first body field after the kind byte: header(4)+kind(1).
	nan := math.Float64bits(math.NaN())
	for i := 0; i < 8; i++ {
		b[5+i] = byte(nan >> (56 - 8*i))
	}
	if _, _, err := Decode(b); err == nil {
		t.Fatal("decoder accepted NaN float")
	}
}

func TestEncodeRejectsNonFinite(t *testing.T) {
	if _, err := Encode(Grant{T: math.Inf(1)}); err == nil {
		t.Fatal("encoder accepted +Inf")
	}
	if _, err := Encode(Request{DistToEntry: math.NaN()}); err == nil {
		t.Fatal("encoder accepted NaN")
	}
}

func TestEncodeRejectsBadEnums(t *testing.T) {
	cases := []Frame{
		Request{Approach: 4},
		Request{Turn: 3},
		Grant{RespKind: 4},
		Hello{Clock: 2},
		Welcome{Geometry: 2},
	}
	for _, f := range cases {
		if _, err := Encode(f); err == nil {
			t.Fatalf("encoder accepted out-of-range enum in %+v", f)
		}
	}
}

func TestEncodeRejectsLongString(t *testing.T) {
	if _, err := Encode(Bye{Reason: strings.Repeat("x", MaxStringLen+1)}); err == nil {
		t.Fatal("encoder accepted oversized string")
	}
}

func TestDecodeRejectsUnknownKind(t *testing.T) {
	b := []byte{0, 0, 0, 1, 200}
	if _, _, err := Decode(b); err == nil {
		t.Fatal("decoder accepted unknown frame kind")
	}
}

func TestDecodeRejectsOversizedLength(t *testing.T) {
	b := []byte{0xff, 0xff, 0xff, 0xff, 1}
	if _, _, err := Decode(b); err != ErrFrameTooLarge {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

func TestNegotiate(t *testing.T) {
	cases := []struct {
		min, max uint16
		want     uint16
		ok       bool
	}{
		{1, 1, 1, true},
		{1, 2, 2, true},
		{1, 9, 2, true},
		{2, 2, 2, true},
		{2, 9, 2, true},
		{0, 1, 1, true},
		{3, 9, 0, false},
		{0, 0, 0, false},
		{5, 2, 0, false}, // inverted, disjoint
		{2, 1, 0, false}, // inverted, yet brackets the build span
		{9, 0, 0, false}, // inverted, brackets the whole span
	}
	for _, c := range cases {
		got, err := Negotiate(c.min, c.max)
		if c.ok != (err == nil) || got != c.want {
			t.Fatalf("Negotiate(%d,%d) = %d, %v; want %d, ok=%v",
				c.min, c.max, got, err, c.want, c.ok)
		}
	}
}

// TestHelloInvertedWindow pins the malformed-handshake fix: a Hello whose
// MinVersion exceeds its MaxVersion must be refused by the encoder and —
// the part that used to be missing — by the decoder, even when the
// inverted range still brackets the build's version span.
func TestHelloInvertedWindow(t *testing.T) {
	if _, err := Encode(Hello{MinVersion: 2, MaxVersion: 1}); err == nil {
		t.Fatal("encoder accepted inverted hello window")
	}
	// Hand-assemble the wire bytes the encoder refuses to produce:
	// min=2, max=1 brackets [1,2], min=9, max=0 brackets everything.
	for _, w := range [][2]uint16{{2, 1}, {9, 0}, {MaxVersion + 1, MinVersion}} {
		body := []byte{byte(FrameHello),
			byte(w[0] >> 8), byte(w[0]), byte(w[1] >> 8), byte(w[1]),
			0,    // clock: wall
			0, 0} // empty client string
		b := append([]byte{0, 0, 0, byte(len(body))}, body...)
		if _, _, err := Decode(b); err == nil {
			t.Fatalf("decoder accepted inverted hello window [%d, %d]", w[0], w[1])
		}
	}
}

func TestBatchDirectionClosedSets(t *testing.T) {
	// A Grant cannot ride client->server; a Request cannot ride back.
	if _, err := Encode(Batch{Seq: 1, Items: []BatchItem{{Node: 0, F: Grant{}}}}); err == nil {
		t.Fatal("encoder accepted reply frame inside Batch")
	}
	if _, err := Encode(BatchReply{Seq: 1, Items: []BatchItem{{Node: 0, F: Request{}}}}); err == nil {
		t.Fatal("encoder accepted injectable frame inside BatchReply")
	}
	// Nested batches are not a thing.
	if _, err := Encode(Batch{Seq: 1, Items: []BatchItem{{F: Batch{}}}}); err == nil {
		t.Fatal("encoder accepted nested batch")
	}
	// Flip the item kind byte on the wire and demand a decode error: the
	// item sits at body offset seq(4)+count(2)+node(4) past the kind byte.
	b, err := Encode(Batch{Seq: 1, Items: []BatchItem{{Node: 0, F: Exit{}}}})
	if err != nil {
		t.Fatal(err)
	}
	b[headerSize+1+4+2+4] = byte(FrameGrant)
	if _, _, err := Decode(b); err == nil {
		t.Fatal("decoder accepted reply frame inside Batch")
	}
}

func TestBatchRejectsEmptyAndOversized(t *testing.T) {
	if _, err := Encode(Batch{Seq: 1}); err == nil {
		t.Fatal("encoder accepted empty batch")
	}
	items := make([]BatchItem, MaxBatchItems+1)
	for i := range items {
		items[i] = BatchItem{F: Exit{}}
	}
	if _, err := Encode(Batch{Seq: 1, Items: items}); err == nil {
		t.Fatal("encoder accepted oversized batch")
	}
	// Wire-side: a count of zero must be rejected too.
	b, err := Encode(Batch{Seq: 7, Items: []BatchItem{{F: Exit{}}}})
	if err != nil {
		t.Fatal(err)
	}
	b[headerSize+1+4] = 0
	b[headerSize+1+5] = 0
	if _, _, err := Decode(b); err == nil {
		t.Fatal("decoder accepted zero-count batch")
	}
}

func TestTopoRejectsDegenerateGrid(t *testing.T) {
	if _, err := Encode(Topo{Rows: 0, Cols: 3}); err == nil {
		t.Fatal("encoder accepted 0-row topo")
	}
	b, err := Encode(Topo{Rows: 1, Cols: 1})
	if err != nil {
		t.Fatal(err)
	}
	b[headerSize+1+2] = 0 // cols -> 0
	b[headerSize+1+3] = 0
	if _, _, err := Decode(b); err == nil {
		t.Fatal("decoder accepted 0-col topo")
	}
}

// TestReaderWriterStream pushes a mixed frame stream through the
// io-based framing layer and checks order and content survive.
func TestReaderWriterStream(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var frames []Frame
	for i := 0; i < 200; i++ {
		frames = append(frames, randFrame(rng, allKinds[rng.Intn(len(allKinds))]))
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, f := range frames {
		if err := w.WriteFrame(f); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	r := NewReader(&buf)
	for i, want := range frames {
		got, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("read frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("frame %d:\nwant %+v\n got %+v", i, want, got)
		}
	}
	if _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

// TestReaderMidFrameEOF cuts a stream inside a frame and expects
// ErrUnexpectedEOF, not a clean EOF.
func TestReaderMidFrameEOF(t *testing.T) {
	b, err := Encode(Bye{Reason: "done"})
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(b[:len(b)-2]))
	if _, err := r.ReadFrame(); err != io.ErrUnexpectedEOF {
		t.Fatalf("want io.ErrUnexpectedEOF, got %v", err)
	}
}

func TestFrameKindStrings(t *testing.T) {
	for _, k := range allKinds {
		if s := k.String(); strings.HasPrefix(s, "frame(") {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if FrameKind(250).String() != "frame(250)" {
		t.Fatal("unknown kind should fall back to numeric form")
	}
}

// BenchmarkCodec times the wire codec alone on the two frames every
// crossing exchanges: Append of a request and a grant into a reused
// buffer, and Decode of each back, checked against the original.
func BenchmarkCodec(b *testing.B) {
	for _, f := range []Frame{
		Request{T: 12.5, VehicleID: 42, Seq: 3, Approach: 1, Turn: 2, CurrentSpeed: 11.2,
			DistToEntry: 48, TransmitTime: 12.49, MaxSpeed: 13.9, MaxAccel: 3, MaxDecel: 6,
			Length: 4.5, Width: 1.8, Wheelbase: 2.7},
		Grant{T: 12.6, VehicleID: 42, RespKind: 1, Seq: 3, TargetSpeed: 9.5, ExecuteAt: 12.65, ArriveAt: 17.3},
	} {
		wire, err := Encode(f)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(f.Kind().String()+"/append", func(b *testing.B) {
			buf := make([]byte, 0, len(wire))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = Append(buf[:0], f); err != nil {
					b.Fatal(err)
				}
			}
			if !bytes.Equal(buf, wire) {
				b.Fatalf("Append wrote %x, want %x", buf, wire)
			}
		})
		b.Run(f.Kind().String()+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, n, err := Decode(wire)
				if err != nil || n != len(wire) || got != f {
					b.Fatalf("Decode = %+v, %d, %v; want %+v, %d", got, n, err, f, len(wire))
				}
			}
		})
	}
}
