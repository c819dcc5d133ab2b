package wire

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// acceptFakeSession stands in for a worker node's handshake in client
// tests: it accepts a control connection on ln, grants the session one
// data stream, and accepts the data connection DialWorker then attaches.
func acceptFakeSession(ln net.Listener) (ctrl, data *Conn, err error) {
	var conns [2]*Conn
	for i := range conns {
		nc, err := ln.Accept()
		if err != nil {
			return nil, nil, err
		}
		c := NewConn(nc)
		typ, payload, err := c.RecvTimeout(5 * time.Second)
		if err != nil {
			return nil, nil, err
		}
		hello, err := DecodeBinHello(payload)
		if typ != TypeHello || err != nil || hello.Stream != i || hello.SessionID == 0 {
			return nil, nil, fmt.Errorf("connection %d opened with frame type %d, hello %+v, err %v", i, typ, hello, err)
		}
		if err := c.Send(Welcome{Role: RoleWorker, Task: hello.Task, Streams: 1}); err != nil {
			return nil, nil, err
		}
		conns[i] = c
	}
	return conns[0], conns[1], nil
}

// TestDialWorkerRetriesHandshakeTransportFailure: a crashed worker's
// port can accept a connect and reset the stream before the Welcome
// while its replacement process is still binding — the recovery redial
// must ride that window out under its backoff budget, not give up on
// the first mid-handshake failure.
func TestDialWorkerRetriesHandshakeTransportFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		// First connect: slam the door mid-handshake.
		c, err := ln.Accept()
		if err != nil {
			return
		}
		c.Close()
		// Second connect: a real worker handshake.
		acceptFakeSession(ln)
	}()
	w, err := DialWorker(ln.Addr().String(), Hello{Task: 3}, Backoff{
		Attempts: 5, Base: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("handshake did not survive a mid-handshake connection reset: %v", err)
	}
	w.Close()
}

// TestDialWorkerProtocolRefusalIsFatal: a peer that completes the round
// but answers wrongly (here: a merger's role) must fail immediately —
// retrying a peer that answered wrongly cannot help, and a recovery
// loop burning its whole redial budget on it would mask the real error.
func TestDialWorkerProtocolRefusalIsFatal(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepts atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			conn := NewConn(c)
			if _, _, err := conn.Recv(); err != nil {
				continue
			}
			conn.Send(Welcome{Role: RoleMerger, Task: 0})
		}
	}()
	_, err = DialWorker(ln.Addr().String(), Hello{}, Backoff{
		Attempts: 5, Base: 5 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("handshake with a merger succeeded as a worker dial")
	}
	if !strings.Contains(err.Error(), "identifies as") {
		t.Errorf("error %q does not name the role mismatch", err)
	}
	if n := accepts.Load(); n != 1 {
		t.Errorf("protocol refusal was retried: %d connects, want 1", n)
	}
}

// TestDialBoundedByMaxElapsed: a huge attempt budget must not translate
// into a huge wall-clock budget — MaxElapsed cuts the loop off mid
// backoff. 50 attempts at Base 50ms would otherwise sleep for minutes.
func TestDialBoundedByMaxElapsed(t *testing.T) {
	start := time.Now()
	_, err := Dial("127.0.0.1:1", Backoff{
		Attempts:   50,
		Base:       50 * time.Millisecond,
		MaxElapsed: 200 * time.Millisecond,
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("dialing a dead port succeeded")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("dial loop ran %v past a 200ms MaxElapsed", elapsed)
	}
	if !strings.Contains(err.Error(), "deadline") && !strings.Contains(err.Error(), "attempts") {
		t.Errorf("error %q does not say why the dial gave up", err)
	}
}

// TestDialDefaultMaxElapsedIsFinite: the zero value must derive a
// bounded cap, not an unbounded loop.
func TestDialDefaultMaxElapsedIsFinite(t *testing.T) {
	b := Backoff{}.withDefaults()
	if b.MaxElapsed <= 0 {
		t.Fatalf("default MaxElapsed = %v, want > 0", b.MaxElapsed)
	}
	// 10 attempts, 3s connect timeout each, plus capped backoff sleeps:
	// generous, but it must stay in the well-under-a-minute range so a
	// fleet bring-up cannot wedge behind one dead address indefinitely.
	if b.MaxElapsed > time.Minute {
		t.Fatalf("default MaxElapsed = %v, want a bounded bring-up budget", b.MaxElapsed)
	}
}

// TestDialContextHonorsCancellation: an already-expired context returns
// promptly from inside the backoff sleep, not after the attempt budget.
func TestDialContextHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := DialContext(ctx, "127.0.0.1:1", Backoff{Attempts: 50, Base: 100 * time.Millisecond})
	if err == nil {
		t.Fatal("dialing a dead port succeeded")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("DialContext ran %v past a 50ms context deadline", elapsed)
	}
}
