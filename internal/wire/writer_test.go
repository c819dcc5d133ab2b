package wire

import (
	"errors"
	"testing"
	"time"
)

// TestFrameWriterSendAfterStopFails: once the writer has stopped — by
// Stop, or by a failed write — every later Send and Drain reports an
// error. The queue still has room then, so a select that races the
// enqueue against the stop signal would report success for about half of
// them and drop the frames unwritten.
func TestFrameWriterSendAfterStopFails(t *testing.T) {
	const sends = 1000
	check := func(t *testing.T, w *FrameWriter) {
		t.Helper()
		for i := 0; i < sends; i++ {
			buf := GetBuf()
			buf.B = AppendDrain(buf.B, Drain{Seq: uint64(i)})
			if err := w.Send(TypeDrain, buf); err == nil {
				t.Fatalf("send %d after the writer stopped returned nil", i)
			}
			if err := w.SendFrame(Ping{}); err == nil {
				t.Fatalf("frame %d after the writer stopped returned nil", i)
			}
		}
		if err := w.Drain(); err == nil {
			t.Fatal("drain after the writer stopped returned nil")
		}
	}
	t.Run("stop", func(t *testing.T) {
		cli, _ := tcpPair(t)
		w := NewFrameWriter(NewConn(cli), 0)
		w.Stop()
		check(t, w)
	})
	t.Run("failed write", func(t *testing.T) {
		cli, _ := tcpPair(t)
		cli.Close()
		w := NewFrameWriter(NewConn(cli), 0)
		defer w.Stop()
		if err := w.SendFrame(Ping{}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-w.done:
		case <-time.After(5 * time.Second):
			t.Fatal("write on a closed connection did not stop the writer")
		}
		if w.Err() == nil {
			t.Fatal("the writer stopped without recording the write failure")
		}
		check(t, w)
	})
}

// TestFrameWriterRefusesOversizedFrame: a frame over MaxFrameSize fails
// its Send with ErrFrameTooLarge before it is queued, and the writer goes
// on: the next frame reaches the peer.
func TestFrameWriterRefusesOversizedFrame(t *testing.T) {
	cli, srv := tcpPair(t)
	w := NewFrameWriter(NewConn(cli), 0)
	defer w.Stop()
	buf := GetBuf()
	buf.B = make([]byte, MaxFrameSize)
	if err := w.Send(TypeMatchBatch, buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized send: %v, want ErrFrameTooLarge", err)
	}
	if err := w.SendFrame(StatsReq{Seq: 4}); err != nil {
		t.Fatal(err)
	}
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := NewConn(srv).Recv()
	if err != nil {
		t.Fatal(err)
	}
	if f, err := DecodeControl(typ, payload); err != nil || f != (StatsReq{Seq: 4}) {
		t.Fatalf("the peer read %v (%v), want the stats request", f, err)
	}
}
