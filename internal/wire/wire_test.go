package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"ps2stream/internal/model"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	payloads := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{0xAB}, 1<<15)}
	for i, p := range payloads {
		if err := WriteFrame(w, byte(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(&buf)
	for i, p := range payloads {
		typ, got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != byte(i+1) {
			t.Errorf("frame %d: type %d, want %d", i, typ, i+1)
		}
		if !bytes.Equal(got, p) {
			t.Errorf("frame %d: payload mismatch (%d vs %d bytes)", i, len(got), len(p))
		}
	}
	if _, _, err := ReadFrame(r); err != io.EOF {
		t.Errorf("after last frame: %v, want io.EOF", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteFrame(w, TypeOpBatch, []byte("some payload bytes")); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	whole := buf.Bytes()
	// Every proper prefix except the empty one must fail with ErrBadFrame
	// (the empty prefix is a clean EOF at a frame boundary).
	for cut := 1; cut < len(whole); cut++ {
		_, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(whole[:cut])))
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("prefix of %d/%d bytes: err = %v, want ErrBadFrame", cut, len(whole), err)
		}
	}
	_, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(nil)))
	if err != io.EOF {
		t.Errorf("empty stream: %v, want io.EOF", err)
	}
}

func TestReadFrameGarbage(t *testing.T) {
	cases := map[string][]byte{
		"zero length":   {0, 0, 0, 0},
		"huge length":   {0xFF, 0xFF, 0xFF, 0xFF, 1},
		"ascii garbage": []byte("GET / HTTP/1.1\r\n\r\n"),
	}
	for name, data := range cases {
		_, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(data)))
		if err == nil || err == io.EOF {
			t.Errorf("%s: err = %v, want framing error", name, err)
		}
		if !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("%s: err = %v, want ErrBadFrame or ErrFrameTooLarge", name, err)
		}
	}
	// "ascii garbage" decodes to a plausible length and then runs out of
	// body; "huge length" must refuse before allocating.
	_, _, err := ReadFrame(bufio.NewReader(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF})))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("huge header: %v, want ErrFrameTooLarge", err)
	}
}

func TestWriteFrameTooLarge(t *testing.T) {
	w := bufio.NewWriter(io.Discard)
	if err := WriteFrame(w, 1, make([]byte, MaxFrameSize)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestCheckHandshake(t *testing.T) {
	if err := CheckHandshake(Magic, Version); err != nil {
		t.Errorf("valid handshake rejected: %v", err)
	}
	if err := CheckHandshake("NOTPS2", Version); err == nil {
		t.Error("bad magic accepted")
	}
	if err := CheckHandshake(Magic, Version+1); err == nil {
		t.Error("future version accepted")
	}
}

func TestDialBackoffGivesUp(t *testing.T) {
	start := time.Now()
	_, err := Dial("127.0.0.1:1", Backoff{Attempts: 2, Base: 10 * time.Millisecond})
	if err == nil {
		t.Fatal("dial to closed port succeeded")
	}
	if !strings.Contains(err.Error(), "after 2 attempts") {
		t.Errorf("err = %v, want attempt count", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Errorf("backoff took %v", time.Since(start))
	}
}

func TestDialBackoffRetriesUntilListenerUp(t *testing.T) {
	// Grab a port, close the listener, dial with backoff, and bring the
	// listener back while the dialer retries: deployment scripts start
	// psnode peers in arbitrary order.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	go func() {
		time.Sleep(80 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			return // port raced away; the dial error path covers us
		}
		defer ln2.Close()
		c, err := ln2.Accept()
		if err == nil {
			c.Close()
		}
	}()
	c, err := Dial(addr, Backoff{Attempts: 10, Base: 20 * time.Millisecond})
	if err != nil {
		t.Skipf("port %s not reacquired: %v", addr, err)
	}
	c.Close()
}

// TestWorkerClientCloseUnblocksFullMatchBuffer: a read loop parked on
// the bounded match channel (consumer gone, e.g. a cancelled run) must
// exit on Close instead of leaking the goroutine and connection.
func TestWorkerClientCloseUnblocksFullMatchBuffer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := acceptFakeWorker(ln)
		if err != nil {
			return
		}
		// Flood more batches than the client buffers (128) without the
		// client ever consuming one.
		for i := 0; i < 200; i++ {
			if c.Send(MatchBatch{Matches: []MatchEnv{{M: model.Match{ObjectID: uint64(i)}}}}) != nil {
				return
			}
		}
	}()
	cl, err := DialWorker(ln.Addr().String(), Hello{}, Backoff{Attempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the read loop fill the buffer and park
	cl.Close()
	select {
	case <-cl.readDone:
	case <-time.After(5 * time.Second):
		t.Fatal("read loop still parked after Close")
	}
	// The match channel must be closed so a late consumer unblocks too.
	for {
		if _, err := cl.RecvMatches(); err != nil {
			break
		}
	}
}

func TestHandshakeRejectsWrongRole(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		c := NewConn(nc)
		if _, _, err := c.RecvTimeout(time.Second); err != nil {
			return
		}
		c.Send(Welcome{Role: RoleMerger})
	}()
	_, err = DialWorker(ln.Addr().String(), Hello{}, Backoff{Attempts: 1})
	if err == nil || !strings.Contains(err.Error(), "identifies as") {
		t.Errorf("err = %v, want role mismatch", err)
	}
}
