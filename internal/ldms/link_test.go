package ldms

import (
	"bufio"
	"bytes"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"darshanldms/internal/event"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

// linkBackoff reads the delay the link will sleep after its next failure.
func linkBackoff(l *link) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.backoff
}

// waitGoroutines polls until the goroutine count is back at base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// closeWithin closes c and fails the test if Close has not returned
// within d.
func closeWithin(t *testing.T, what string, d time.Duration, c func() error) {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- c() }()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(d):
		t.Fatalf("%s Close still blocked after %v mid-backoff", what, d)
	}
}

// TestSendersWriteOnlyBatchFrames feeds one TCPServer from both
// reconnecting senders: every frame on the wire is a batch frame.
func TestSendersWriteOnlyBatchFrames(t *testing.T) {
	agg := NewDaemon("agg", "head")
	srv, err := ListenTCP(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	node := NewDaemon("node", "nid00040")
	cfg := fastBackoff(srv.Addr())
	cfg.HeartbeatEvery = 2 * time.Millisecond
	f, err := NewReconnectingForwarder(node, cfg) // zero Batch: one message per frame
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s := openTestStream(t, sos.NewMemWAL())
	u, err := NewStreamUplink(s, fastUplink(srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()

	for i := 0; i < 10; i++ {
		publishSeq(node, i)
		appendSeq(t, s, i)
	}
	waitFor(t, "delivery and heartbeats", func() bool { return srv.Received() == 20 && srv.Heartbeats() >= 2 })
	if legacy, batch := srv.frames.Load(), srv.batchFrames.Load(); legacy != 0 || batch == 0 {
		t.Fatalf("server counted %d legacy and %d batch frames, want 0 legacy", legacy, batch)
	}
}

// TestForwarderDropsOversizeMessage: a message that cannot fit MaxFrame
// on its own is dropped and counted, not retried against a healthy
// connection; the messages after it arrive over the same connection.
func TestForwarderDropsOversizeMessage(t *testing.T) {
	agg := NewDaemon("agg", "head")
	store := &seqStore{}
	agg.AttachStore("darshanConnector", store)
	srv, err := ListenTCP(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	node := NewDaemon("node", "nid00040")
	cfg := fastBackoff(srv.Addr())
	cfg.Overflow = Block
	f, err := NewReconnectingForwarder(node, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	node.Bus().Publish(streams.Message{Tag: "darshanConnector", Type: streams.TypeString, Data: make([]byte, MaxFrame+1)})
	for i := 0; i < 5; i++ {
		publishSeq(node, i)
	}
	if err := f.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "normal messages", func() bool { return len(store.Seqs()) == 5 })
	st := f.Stats()
	if st.Sent != 5 || st.Dropped != 1 || st.Dials != 1 || st.Retries != 0 {
		t.Fatalf("sent %d dropped %d dials %d retries %d, want 5/1/1/0", st.Sent, st.Dropped, st.Dials, st.Retries)
	}
	if bus := node.Bus().Stats("darshanConnector"); bus.Dropped != 1 {
		t.Fatalf("bus dropped %d, want the oversize drop folded in (1)", bus.Dropped)
	}
}

// TestStreamUplinkSplitsLargeRound: a fetch round whose messages add up
// to more than MaxFrame goes out as several frames, not as a link error.
func TestStreamUplinkSplitsLargeRound(t *testing.T) {
	agg := NewDaemon("agg", "head")
	srv, err := ListenTCP(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	s := openTestStream(t, sos.NewMemWAL())
	const n = 3
	for i := 0; i < n; i++ {
		if _, err := s.Append(streams.Message{Tag: "darshanConnector", Type: streams.TypeString, Data: make([]byte, 6<<20)}); err != nil {
			t.Fatal(err)
		}
	}
	u, err := NewStreamUplink(s, fastUplink(srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if err := u.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery", func() bool { return srv.Received() == n })
	st := u.Stats()
	if st.Sent != n || st.Naks != 0 || st.Oversize != 0 || st.Dials != 1 {
		t.Fatalf("stats %+v, want %d sent over one dial", st, n)
	}
	if frames := srv.batchFrames.Load(); frames < 2 {
		t.Fatalf("%d batch frames, want the round split", frames)
	}
}

// TestLinkReportsOversizeIndexes pins the split: halves are written in
// order and only the message that cannot fit alone is reported.
func TestLinkReportsOversizeIndexes(t *testing.T) {
	var buf bytes.Buffer
	l := &link{bw: bufio.NewWriter(&buf)}
	msgs := []streams.Message{
		{Tag: "a", Type: streams.TypeString, Data: []byte("x")},
		{Tag: "big", Type: streams.TypeString, Data: make([]byte, MaxFrame)},
		{Tag: "b", Type: streams.TypeString, Data: []byte("y")},
	}
	oversize, err := l.framesLocked(msgs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(oversize) != 1 || oversize[0] != 1 {
		t.Fatalf("oversize %v, want [1]", oversize)
	}
	l.bw.Flush()
	dec, br := NewBatchDecoder(), bufio.NewReader(&buf)
	var tags []string
	for {
		got, slab, err := dec.ReadAnyFrameSlab(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range got {
			tags = append(tags, m.Tag)
		}
		slab.Release()
	}
	if len(tags) != 2 || tags[0] != "a" || tags[1] != "b" {
		t.Fatalf("decoded tags %v, want [a b]", tags)
	}
}

// churnMaxBackoff lets a churn test's backoff, fast at first, grow to
// seconds, so Close can be tested in the middle of a long sleep.
const churnMaxBackoff = 10 * time.Second

// TestForwarderCloseUnderChurn drops the connection repeatedly while
// messages flow, then kills the aggregator and closes the forwarder in
// the middle of a multi-second backoff: Close returns promptly and every
// goroutine the forwarder started (worker, heartbeat, monitors) is gone.
func TestForwarderCloseUnderChurn(t *testing.T) {
	base := runtime.NumGoroutine()
	agg := NewDaemon("agg", "head")
	srv, err := ListenTCP(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node := NewDaemon("node", "nid00040")
	cfg := fastBackoff(srv.Addr())
	cfg.MaxBackoff = churnMaxBackoff
	cfg.HeartbeatEvery = time.Millisecond
	cfg.Batch = event.FlushPolicy{MaxRecords: 8}
	f, err := NewReconnectingForwarder(node, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 10; round++ {
		for i := 0; i < 20; i++ {
			publishSeq(node, round*20+i)
		}
		srv.DropConnections()
		time.Sleep(2 * time.Millisecond)
	}
	waitFor(t, "delivery under churn", func() bool { return f.Stats().Dials >= 2 && srv.Received() > 0 })
	srv.Close()
	waitFor(t, "disconnect detection", func() bool { return !f.Stats().Connected })
	publishSeq(node, -1)
	waitFor(t, "long backoff", func() bool { return linkBackoff(f.link) >= 2*time.Second })
	closeWithin(t, "forwarder", time.Second, f.Close)
	waitGoroutines(t, base)
}

// TestStreamUplinkCloseUnderChurn is the same lifecycle check for the
// durable uplink.
func TestStreamUplinkCloseUnderChurn(t *testing.T) {
	base := runtime.NumGoroutine()
	agg := NewDaemon("agg", "head")
	srv, err := ListenTCP(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := openTestStream(t, sos.NewMemWAL())
	cfg := fastUplink(srv.Addr())
	cfg.MaxBackoff = churnMaxBackoff
	u, err := NewStreamUplink(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 10; round++ {
		for i := 0; i < 20; i++ {
			appendSeq(t, s, round*20+i)
		}
		srv.DropConnections()
		time.Sleep(2 * time.Millisecond)
	}
	waitFor(t, "delivery under churn", func() bool { return u.Stats().Dials >= 2 && srv.Received() > 0 })
	srv.Close()
	waitFor(t, "disconnect detection", func() bool { return !u.Stats().Connected })
	appendSeq(t, s, -1)
	waitFor(t, "long backoff", func() bool { return linkBackoff(u.link) >= 2*time.Second })
	closeWithin(t, "uplink", time.Second, u.Close)
	waitGoroutines(t, base)
}

// TestStreamUplinkFailoverSwitchesBack kills the primary (the uplink
// moves to the standby), restarts it, then kills the standby: the uplink
// returns to the primary, every message reaches some aggregator, and the
// ack floor never moves backward.
func TestStreamUplinkFailoverSwitchesBack(t *testing.T) {
	listen := func(addr string) (*TCPServer, *seqStore) {
		d := NewDaemon("agg", "head")
		st := &seqStore{}
		d.AttachStore("darshanConnector", st)
		srv, err := ListenTCP(d, addr)
		if err != nil {
			t.Fatal(err)
		}
		return srv, st
	}
	psrv, pstore := listen("127.0.0.1:0")
	ssrv, sstore := listen("127.0.0.1:0")
	defer ssrv.Close()
	paddr, saddr := psrv.Addr(), ssrv.Addr()

	s := openTestStream(t, sos.NewMemWAL())
	cfg := fastUplink(paddr)
	cfg.Standby = saddr
	u, err := NewStreamUplink(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()

	var regressions atomic.Int64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			f := u.Stats().Consumer.AckFloor
			if f < last {
				regressions.Add(1)
			}
			last = f
			time.Sleep(time.Millisecond)
		}
	}()

	const third = 10
	for i := 0; i < third; i++ {
		appendSeq(t, s, i)
	}
	waitFor(t, "first third on the primary", func() bool { return len(pstore.Seqs()) == third })

	psrv.Close()
	waitFor(t, "primary loss detected", func() bool { return !u.Stats().Connected })
	for i := third; i < 2*third; i++ {
		appendSeq(t, s, i)
	}
	waitFor(t, "switch to the standby", func() bool { return u.Stats().Active == saddr })
	waitFor(t, "second third on the standby", func() bool { return len(sstore.Seqs()) == third })

	psrv2, p2store := listen(paddr)
	defer psrv2.Close()
	ssrv.Close()
	waitFor(t, "standby loss detected", func() bool { return !u.Stats().Connected })
	for i := 2 * third; i < 3*third; i++ {
		appendSeq(t, s, i)
	}
	waitFor(t, "switch back to the primary", func() bool { return u.Stats().Active == paddr })
	if err := u.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "last third on the restarted primary", func() bool { return len(p2store.Seqs()) == third })
	close(stop)
	<-sampled

	st := u.Stats()
	if st.Switches != 2 {
		t.Fatalf("switches %d, want 2 (there and back)", st.Switches)
	}
	if st.Consumer.AckFloor != 3*third {
		t.Fatalf("ack floor %d, want %d", st.Consumer.AckFloor, 3*third)
	}
	if n := regressions.Load(); n != 0 {
		t.Fatalf("ack floor regressed %d times", n)
	}
	got := map[int]bool{}
	for _, st := range []*seqStore{pstore, sstore, p2store} {
		for _, q := range st.Seqs() {
			got[q] = true
		}
	}
	for i := 0; i < 3*third; i++ {
		if !got[i] {
			t.Fatalf("seq %d reached no aggregator", i)
		}
	}
}
