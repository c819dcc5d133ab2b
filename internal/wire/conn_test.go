package wire

import (
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// deadlineCounter counts SetReadDeadline/SetWriteDeadline calls so the
// coarsening tests can assert the hot path does not pay a deadline
// syscall per frame.
type deadlineCounter struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *deadlineCounter) SetReadDeadline(t time.Time) error {
	c.reads.Add(1)
	return c.Conn.SetReadDeadline(t)
}

func (c *deadlineCounter) SetWriteDeadline(t time.Time) error {
	c.writes.Add(1)
	return c.Conn.SetWriteDeadline(t)
}

func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		server, err = ln.Accept()
	}()
	client, cerr := net.Dial("tcp", ln.Addr().String())
	if cerr != nil {
		t.Fatal(cerr)
	}
	<-done
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// TestConnDeadlineCoarsening: a burst of frames far faster than the
// timeout window re-arms each deadline O(1) times, not once per frame —
// the per-frame SetDeadline cost this codec release hoisted out of the
// hot loop.
func TestConnDeadlineCoarsening(t *testing.T) {
	cliNC, srvNC := tcpPair(t)
	cnt := &deadlineCounter{Conn: cliNC}
	cli := NewConn(cnt)
	cli.ReadTimeout = 10 * time.Second
	cli.WriteTimeout = 10 * time.Second
	srv := NewConn(srvNC)

	const frames = 200
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			if _, _, err := srv.Recv(); err != nil {
				errc <- err
				return
			}
			if err := srv.SendPayload(TypePing, nil); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < frames; i++ {
		if err := cli.SendPayload(TypePing, nil); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cli.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	// The whole burst fits well inside timeout/4, so each direction arms
	// at most a few times (first use plus clock-edge slop) — not ~200.
	if r := cnt.reads.Load(); r > 5 {
		t.Errorf("read deadline armed %d times over %d frames, want <= 5", r, frames)
	}
	if w := cnt.writes.Load(); w > 5 {
		t.Errorf("write deadline armed %d times over %d frames, want <= 5", w, frames)
	}
}

// TestConnReadDeadlineExpires: coarsened arming must not stretch the
// failure window — a peer that goes silent still surfaces a timeout
// within roughly one ReadTimeout of its last frame, never silently
// blocking.
func TestConnReadDeadlineExpires(t *testing.T) {
	cliNC, srvNC := tcpPair(t)
	_ = srvNC // deliberately silent peer
	cli := NewConn(cliNC)
	cli.ReadTimeout = 200 * time.Millisecond
	start := time.Now()
	_, _, err := cli.Recv()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Recv returned without a peer frame")
	}
	// ReadFrame folds the transport cause into ErrBadFrame's message.
	if !errors.Is(err, ErrBadFrame) || !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("err = %v, want a framed timeout", err)
	}
	if elapsed < 100*time.Millisecond || elapsed > 2*time.Second {
		t.Errorf("timed out after %v, want about the 200ms ReadTimeout", elapsed)
	}
}

// TestWorkerClientSilentPeerSurfacesWorkerDown: the full client path on
// top of the deadline — heartbeats negotiated, peer wedges after the
// handshake, and the session fails with ErrWorkerDown within a few
// heartbeat intervals instead of hanging on a never-armed deadline.
func TestWorkerClientSilentPeerSurfacesWorkerDown(t *testing.T) {
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
		defer c.Close()
		// Promise heartbeats, send none: wedged peer.
		time.Sleep(5 * time.Second)
	}()
	cl, err := DialWorker(ln.Addr().String(), Hello{HeartbeatMillis: 50}, Backoff{Attempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	_, err = cl.RecvMatches()
	if !errors.Is(err, ErrWorkerDown) {
		t.Fatalf("err = %v, want ErrWorkerDown", err)
	}
	// 4 heartbeat intervals = 200ms read deadline; allow generous CI slack.
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("worker-down surfaced after %v, want within a few heartbeat intervals", elapsed)
	}
}
