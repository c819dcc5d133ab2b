package faultnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"time"
)

// drawSchedule materialises the first n verdicts of one direction.
func drawSchedule(cfg Config, salt int64, n int) []verdict {
	s := newScheduler(cfg, salt)
	out := make([]verdict, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestSchedulerIsDeterministic(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"drop-heavy", Config{Seed: 1, Drop: 0.5}},
		{"dup-heavy", Config{Seed: 7, Dup: 0.5}},
		{"mixed", Config{Seed: 42, Drop: 0.2, Delay: 0.3, DelayMax: time.Millisecond, Dup: 0.2}},
		{"skip", Config{Seed: 42, Drop: 0.5, SkipFrames: 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := drawSchedule(tc.cfg, saltSend, 256)
			b := drawSchedule(tc.cfg, saltSend, 256)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("same config drew two different schedules")
			}
			// A different seed must actually change the schedule (a
			// constant schedule would also pass the check above).
			other := tc.cfg
			other.Seed++
			if reflect.DeepEqual(a, drawSchedule(other, saltSend, 256)) {
				t.Fatal("seed change left the schedule identical")
			}
			// The two directions of one config are independent draws.
			if reflect.DeepEqual(a, drawSchedule(tc.cfg, saltRecv, 256)) {
				t.Fatal("send and recv directions drew the same schedule")
			}
		})
	}
}

// TestSkipFramesShiftsSchedule: exempt frames burn their draws, so the
// post-skip verdicts line up position-for-position with the unskipped
// schedule — SkipFrames shifts where faults apply without re-deriving
// which faults fire.
func TestSkipFramesShiftsSchedule(t *testing.T) {
	base := Config{Seed: 99, Drop: 0.4, Delay: 0.4, Dup: 0.4}
	skipped := base
	skipped.SkipFrames = 10
	plain := drawSchedule(base, saltRecv, 64)
	shift := drawSchedule(skipped, saltRecv, 64)
	for i := 0; i < skipped.SkipFrames; i++ {
		if shift[i] != (verdict{}) {
			t.Fatalf("frame %d inside the skip window drew verdict %+v", i, shift[i])
		}
	}
	if !reflect.DeepEqual(plain[skipped.SkipFrames:], shift[skipped.SkipFrames:]) {
		t.Fatal("verdicts after the skip window diverge from the unskipped schedule")
	}
}

// frame builds one wire-shaped frame (length prefix + body).
func frame(body []byte) []byte {
	f := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(f, uint32(len(body)))
	copy(f[4:], body)
	return f
}

func TestFrameParserReassemblesAcrossChunks(t *testing.T) {
	f1, f2 := frame([]byte("hello")), frame(bytes.Repeat([]byte{0xab}, 300))
	joined := append(append([]byte(nil), f1...), f2...)
	var p frameParser
	var got [][]byte
	// Feed a byte at a time — the worst possible chunking.
	for _, c := range joined {
		got = append(got, p.feed([]byte{c})...)
	}
	if len(got) != 2 || !bytes.Equal(got[0], f1) || !bytes.Equal(got[1], f2) {
		t.Fatalf("reassembled %d frames from byte-wise feed, want the 2 originals", len(got))
	}
	if len(p.buf) != 0 {
		t.Fatalf("%d bytes left in parser after whole frames", len(p.buf))
	}
}

func TestFrameParserFallsBackToRaw(t *testing.T) {
	var p frameParser
	// A length prefix beyond maxFrame means "not wire-framed".
	junk := frame(nil)[:0]
	junk = append(junk, 0xff, 0xff, 0xff, 0xff, 'x')
	got := p.feed(junk)
	if len(got) != 1 || !bytes.Equal(got[0], junk) {
		t.Fatalf("raw fallback returned %v", got)
	}
	if !p.raw {
		t.Fatal("parser did not latch raw mode")
	}
	// Once raw, every later chunk passes straight through.
	if got := p.feed([]byte("more")); len(got) != 1 || string(got[0]) != "more" {
		t.Fatalf("raw mode pass-through returned %v", got)
	}
}

func TestConnDropSevers(t *testing.T) {
	nc, peer := net.Pipe()
	defer peer.Close()
	c := WrapConn(nc, Config{Seed: 3, Drop: 1})
	if _, err := c.Write(frame([]byte("doomed"))); !errors.Is(err, ErrSevered) {
		t.Fatalf("write under Drop=1: err = %v, want ErrSevered", err)
	}
	// The sever closes the real conn (the peer observes a broken stream)
	// and latches: every later operation fails fast.
	if _, err := peer.Read(make([]byte, 1)); err == nil {
		t.Fatal("peer read after sever succeeded, want a broken stream")
	}
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrSevered) {
		t.Fatalf("write after sever: %v, want ErrSevered", err)
	}
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, ErrSevered) {
		t.Fatalf("read after sever: %v, want ErrSevered", err)
	}
}

func TestConnDupWritesFrameTwice(t *testing.T) {
	nc, peer := net.Pipe()
	defer peer.Close()
	c := WrapConn(nc, Config{Seed: 3, Dup: 1})
	f := frame([]byte("twice"))
	errc := make(chan error, 1)
	go func() {
		_, err := c.Write(f)
		errc <- err
	}()
	got := make([]byte, 2*len(f))
	if _, err := io.ReadFull(peer, got); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(append([]byte(nil), f...), f...)) {
		t.Fatal("peer did not receive the frame exactly twice")
	}
}

// TestConnSkipFramesProtectsHandshake: the first frames of each
// direction pass clean even under Drop=1, so a schedule can let the
// Hello/Welcome through and sever only a *running* session.
func TestConnSkipFramesProtectsHandshake(t *testing.T) {
	nc, peer := net.Pipe()
	defer peer.Close()
	c := WrapConn(nc, Config{Seed: 3, Drop: 1, SkipFrames: 2})
	f := frame([]byte("hello"))
	go io.CopyN(io.Discard, peer, int64(2*len(f)))
	for i := 0; i < 2; i++ {
		if _, err := c.Write(f); err != nil {
			t.Fatalf("exempt frame %d: %v", i, err)
		}
	}
	if _, err := c.Write(f); !errors.Is(err, ErrSevered) {
		t.Fatalf("first post-skip frame: err = %v, want ErrSevered", err)
	}
}

// TestListenerReseedsPerAccept: reconnects must not replay the exact
// schedule that severed their predecessor, but the derivation is still
// deterministic (base seed + accept counter).
func TestListenerReseedsPerAccept(t *testing.T) {
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := WrapListener(base, Config{Seed: 1000, Drop: 0.5})
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2; i++ {
			nc, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return
			}
			defer nc.Close()
		}
	}()
	var seeds []int64
	for i := 0; i < 2; i++ {
		nc, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		fc, ok := nc.(*Conn)
		if !ok {
			t.Fatalf("Accept returned %T, want *faultnet.Conn", nc)
		}
		seeds = append(seeds, fc.wsched.cfg.Seed)
	}
	<-done
	if seeds[0] == seeds[1] {
		t.Fatalf("two accepts derived the same seed %d", seeds[0])
	}
	for i, want := range []int64{1000 + 0x9E37, 1000 + 2*0x9E37} {
		if seeds[i] != want {
			t.Fatalf("accept %d derived seed %d, want %d", i, seeds[i], want)
		}
	}
}
