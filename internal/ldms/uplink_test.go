package ldms

import (
	"fmt"
	"testing"
	"time"

	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

func fastUplink(addr string) UplinkConfig {
	return UplinkConfig{
		Addr:           addr,
		PollEvery:      time.Millisecond,
		InitialBackoff: time.Millisecond,
		MaxBackoff:     10 * time.Millisecond,
		DialTimeout:    200 * time.Millisecond,
		AckWait:        100 * time.Millisecond,
		Seed:           1,
	}
}

func openTestStream(t *testing.T, wal sos.WALStore) *streams.DurableStream {
	t.Helper()
	s, err := streams.OpenStream(streams.StreamConfig{
		Name:  "fwd",
		Clock: func() time.Duration { return time.Duration(time.Now().UnixNano()) },
	}, wal)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func appendSeq(t *testing.T, s *streams.DurableStream, i int) {
	t.Helper()
	_, err := s.Append(streams.Message{
		Tag: "darshanConnector", Type: streams.TypeJSON,
		Data:     []byte(fmt.Sprintf(`{"seq":%d}`, i)),
		Producer: "nid00040", Seq: uint64(i),
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStreamUplinkDelivers is the basic path: messages appended to a
// durable stream arrive at the remote daemon, acked as they go.
func TestStreamUplinkDelivers(t *testing.T) {
	agg := NewDaemon("agg", "head")
	srv, err := ListenTCP(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	store := &seqStore{}
	agg.AttachStore("darshanConnector", store)

	s := openTestStream(t, sos.NewMemWAL())
	for i := 0; i < 5; i++ {
		appendSeq(t, s, i)
	}
	u, err := NewStreamUplink(s, fastUplink(srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if err := u.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery", func() bool { return len(store.Seqs()) == 5 })
	st := u.Stats()
	if st.Sent != 5 || st.Consumer.AckFloor != 5 {
		t.Fatalf("stats %+v", st)
	}
}

// TestStreamUplinkSurvivesAggregatorRestart mirrors the forwarder's
// acceptance scenario on the durable path: the aggregator dies
// mid-stream, messages keep accumulating in the stream (not a volatile
// spool), and after a restart on the same address everything unacked is
// delivered — nothing lost, no overflow policy needed.
func TestStreamUplinkSurvivesAggregatorRestart(t *testing.T) {
	agg := NewDaemon("agg", "head")
	srv, err := ListenTCP(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	s := openTestStream(t, sos.NewMemWAL())
	u, err := NewStreamUplink(s, fastUplink(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()

	for i := 0; i < 5; i++ {
		appendSeq(t, s, i)
	}
	waitFor(t, "first batch", func() bool { return srv.Received() == 5 })

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "disconnect detection", func() bool { return !u.Stats().Connected })
	for i := 5; i < 15; i++ {
		appendSeq(t, s, i)
	}
	waitFor(t, "outage naks", func() bool { return u.Stats().Naks >= 1 })

	agg2 := NewDaemon("agg", "head")
	store := &seqStore{}
	agg2.AttachStore("darshanConnector", store)
	srv2, err := ListenTCP(agg2, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	if err := u.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "catch-up", func() bool { return srv2.Received() >= 10 })
	if st := u.Stats(); st.Consumer.AckFloor != 15 {
		t.Fatalf("ack floor %d, want 15", st.Consumer.AckFloor)
	}
}

// TestStreamUplinkCrashResumesFromCursor is the durable half the
// forwarder cannot offer: the uplink (and its stream object) is torn
// down entirely — a process crash — and a successor reopened from the
// same segment resumes from the acked floor, re-sending only what was
// never acked. A DedupStore on the receiver absorbs the overlap, so the
// stored sequence is exactly-once.
func TestStreamUplinkCrashResumesFromCursor(t *testing.T) {
	agg := NewDaemon("agg", "head")
	srv, err := ListenTCP(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	inner := &seqStore{}
	store := NewDedupStore(inner)
	agg.AttachStore("darshanConnector", store)

	wal := sos.NewMemWAL()
	s := openTestStream(t, wal)
	for i := 0; i < 6; i++ {
		appendSeq(t, s, i)
	}
	u, err := NewStreamUplink(s, fastUplink(srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	u.Close() // "crash": only the segment bytes survive

	s2 := openTestStream(t, wal)
	for i := 6; i < 10; i++ {
		appendSeq(t, s2, i)
	}
	u2, err := NewStreamUplink(s2, fastUplink(srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer u2.Close()
	if err := u2.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "resumed delivery", func() bool { return len(inner.Seqs()) == 10 })
	seqs := inner.Seqs()
	for i, got := range seqs {
		if got != i {
			t.Fatalf("stored seqs %v, want 0..9 exactly once", seqs)
		}
	}
	if st := u2.Stats(); st.Consumer.AckFloor != 10 {
		t.Fatalf("successor floor %d, want 10", st.Consumer.AckFloor)
	}
}

func TestStreamUplinkConfigValidation(t *testing.T) {
	if _, err := NewStreamUplink(nil, UplinkConfig{Addr: "x"}); err == nil {
		t.Fatal("nil stream accepted")
	}
	s := openTestStream(t, sos.NewMemWAL())
	if _, err := NewStreamUplink(s, UplinkConfig{}); err == nil {
		t.Fatal("addressless uplink accepted")
	}
}

func TestStreamUplinkStandbyValidation(t *testing.T) {
	s := openTestStream(t, sos.NewMemWAL())
	if _, err := NewStreamUplink(s, UplinkConfig{Addr: "a:1", Standby: "a:1"}); err == nil {
		t.Fatal("standby == primary accepted")
	}
}

// TestStreamUplinkFailsOverToStandby kills the primary aggregator
// mid-stream and checks the full backlog lands on the standby with the
// consumer's ack floor intact: the durable cursor survives the re-home,
// so nothing acked is re-sent from zero and nothing unacked is dropped.
func TestStreamUplinkFailsOverToStandby(t *testing.T) {
	prim := NewDaemon("agg-primary", "head")
	psrv, err := ListenTCP(prim, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pstore := &seqStore{}
	prim.AttachStore("darshanConnector", pstore)

	stby := NewDaemon("agg-standby", "head")
	ssrv, err := ListenTCP(stby, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ssrv.Close()
	sstore := &seqStore{}
	stby.AttachStore("darshanConnector", sstore)

	s := openTestStream(t, sos.NewMemWAL())
	const n = 40
	for i := 0; i < n/2; i++ {
		appendSeq(t, s, i)
	}
	cfg := fastUplink(psrv.Addr())
	cfg.Standby = ssrv.Addr()
	u, err := NewStreamUplink(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()

	waitFor(t, "first half on primary", func() bool { return len(pstore.Seqs()) >= n/2 })
	psrv.Close() // primary dies; dials start failing

	for i := n / 2; i < n; i++ {
		appendSeq(t, s, i)
	}
	waitFor(t, "failover to standby", func() bool { return u.Stats().Active == ssrv.Addr() })
	waitFor(t, "second half on standby", func() bool { return len(sstore.Seqs()) >= n/2 })

	st := u.Stats()
	if st.Switches != 1 {
		t.Fatalf("switches = %d", st.Switches)
	}
	if st.Consumer.AckFloor != n {
		t.Fatalf("ack floor %d, want %d", st.Consumer.AckFloor, n)
	}
	// Union of both aggregators covers every sequence number.
	got := map[int]bool{}
	for _, q := range pstore.Seqs() {
		got[q] = true
	}
	for _, q := range sstore.Seqs() {
		got[q] = true
	}
	for i := 0; i < n; i++ {
		if !got[i] {
			t.Fatalf("seq %d reached neither aggregator", i)
		}
	}
}

// TestStreamUplinkFailoverCloseIsClean checks an uplink with a standby
// shuts down (Close blocks on the waitgroup, so returning at all is the
// proof) and that Close is idempotent.
func TestStreamUplinkFailoverCloseIsClean(t *testing.T) {
	prim := NewDaemon("p", "head")
	psrv, err := ListenTCP(prim, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer psrv.Close()
	s := openTestStream(t, sos.NewMemWAL())
	cfg := fastUplink(psrv.Addr())
	cfg.Standby = "127.0.0.1:1"
	u, err := NewStreamUplink(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}
	if err := u.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
}
