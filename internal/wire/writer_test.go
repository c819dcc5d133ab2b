package wire

import (
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
			buf.B = AppendFence(buf.B, Fence{Epoch: uint64(i)})
			if err := w.Send(TypeFence, buf); err == nil {
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
