package wire

import (
	"bufio"
	"bytes"
	"testing"
)

// seedStream builds a valid multi-frame stream for the fuzz corpus: every
// case of the frame table, framed back to back.
func seedStream(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for _, fc := range frameCases() {
		if err := WriteFrame(w, fc.typ, fc.payload); err != nil {
			tb.Fatal(err)
		}
	}
	w.Flush()
	return buf.Bytes()
}

// streamSeeds names the FuzzWireStream seed corpus: a whole session, the
// same cut mid-frame and corrupted mid-payload, and framing-level garbage.
func streamSeeds(tb testing.TB) map[string][]byte {
	session := seedStream(tb)
	corrupt := bytes.Clone(session)
	for i := 40; i < len(corrupt); i += 97 {
		corrupt[i] ^= 0xA5
	}
	return map[string][]byte{
		"session":           session,
		"truncated-session": session[:len(session)*2/3],
		"corrupt-session":   corrupt,
		"corrupt-opbatch":   {0, 0, 0, 2, TypeOpBatch, 0xFF},
		"garbage":           []byte("GET / HTTP/1.1\r\n\r\n"),
		"huge-length":       {0xFF, 0xFF, 0xFF, 0xFF, 0},
		"zero-length":       {0, 0, 0, 0},
	}
}

// FuzzWireStream feeds arbitrary bytes through the full receive path —
// framing, then the decoder of each frame's type — asserting it never
// panics, never over-allocates past MaxFrameSize, and always terminates.
// This is the input-validation surface a psnode exposes to the network.
func FuzzWireStream(f *testing.F) {
	for _, s := range streamSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 1024; i++ { // bounded: each frame consumes ≥4 bytes
			typ, payload, err := ReadFrame(r)
			if err != nil {
				return
			}
			if len(payload) > MaxFrameSize {
				t.Fatalf("payload of %d bytes escaped MaxFrameSize", len(payload))
			}
			_, _, _ = reencodeFrame(typ, payload)
		}
	})
}

// FuzzFrameWriteRead asserts WriteFrame/ReadFrame are inverse for any
// payload within bounds.
func FuzzFrameWriteRead(f *testing.F) {
	f.Add(byte(TypeOpBatch), []byte("payload"))
	f.Add(byte(0), []byte{})
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		if len(payload) >= MaxFrameSize {
			return
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := WriteFrame(w, typ, payload); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		gotTyp, gotPayload, err := ReadFrame(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if gotTyp != typ || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("round trip mismatch: type %d/%d, %d/%d bytes", gotTyp, typ, len(gotPayload), len(payload))
		}
	})
}
