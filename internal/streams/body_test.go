package streams

import (
	"bytes"
	"fmt"
	"testing"

	"darshanldms/internal/sos"
)

// testBody is the package tests' BodyCarrier: its body is opaque bytes
// and its JSON is the body wrapped in a marker, so a test can tell a
// body-decoded carrier from literal payload bytes.
type testBody []byte

func (b testBody) Payload() []byte { return append([]byte("json:"), b...) }

func (b testBody) AppendBody(dst []byte) ([]byte, bool) {
	if len(b) == 0 {
		return dst, false
	}
	return append(dst, b...), true
}

// The event package registers the real codec; these tests link no event
// code, so they register the test carrier's.
func init() {
	RegisterBodyCodec(func(body []byte) Carrier { return testBody(body) })
}

func appendBody(t *testing.T, s *DurableStream, subject, body string, pseq uint64) uint64 {
	t.Helper()
	seq, err := s.Append(Message{Tag: subject, Type: TypeJSON, Record: testBody(body), Producer: "nid1", Seq: pseq})
	if err != nil {
		t.Fatalf("Append body %q: %v", body, err)
	}
	return seq
}

// walRecords returns the kind tag of every record in the segment.
func walRecords(t *testing.T, wal sos.WALStore) []byte {
	t.Helper()
	var kinds []byte
	if _, _, err := sos.ReplayFrames(wal, func(b []byte) error {
		kinds = append(kinds, b[0])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return kinds
}

// A typed carrier is persisted as its binary body — its JSON is never
// asked for — and comes back through the registered codec.
func TestAppendStoresBodyNotJSON(t *testing.T) {
	wal := sos.NewMemWAL()
	s := mustOpenStream(t, StreamConfig{Name: "d"}, wal)
	appendBody(t, s, "darshan.n.posix", "BIN1", 1)
	mustAppend(t, s, "darshan.n.posix", `{"n":2}`)
	// A carrier without a body (bytes it never parsed) stays JSON.
	if _, err := s.Append(Message{Tag: "darshan.n.posix", Type: TypeJSON, Record: testBody(nil)}); err != nil {
		t.Fatal(err)
	}
	if got := walRecords(t, wal); !bytes.Equal(got, []byte{segKindBody, segKindMsg, segKindMsg}) {
		t.Fatalf("record kinds %v, want body, msg, msg", got)
	}
	if st := s.Stats(); st.Bytes != int64(len("BIN1")+len(`{"n":2}`)+len("json:")) {
		t.Fatalf("retained bytes %d count stored bodies and payloads", st.Bytes)
	}
	c, err := s.Consumer(ConsumerConfig{Name: "c"})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := c.Fetch(8)
	if err != nil || len(ds) != 3 {
		t.Fatalf("fetch: %d deliveries, %v", len(ds), err)
	}
	if b, ok := ds[0].Msg.Record.(testBody); !ok || string(b) != "BIN1" || ds[0].Msg.Data != nil {
		t.Fatalf("body entry came back as %+v", ds[0].Msg)
	}
	if got := string(ds[0].Msg.Payload()); got != "json:BIN1" {
		t.Fatalf("body entry Payload() = %q", got)
	}
	if ds[0].Msg.Producer != "nid1" || ds[0].Msg.Seq != 1 || ds[0].Msg.Type != TypeJSON {
		t.Fatalf("body entry envelope %+v", ds[0].Msg)
	}
	if ds[1].Msg.Record != nil || string(ds[1].Msg.Data) != `{"n":2}` {
		t.Fatalf("JSON entry came back as %+v", ds[1].Msg)
	}
}

// A segment written before binary bodies existed (msg records only), to
// which a newer process appends body records, cursors and trim markers,
// reopens with sequence order, consumer floors and drop counts intact.
func TestMixedSegmentReopens(t *testing.T) {
	wal := sos.NewMemWAL()
	cfg := StreamConfig{Name: "d", Retention: RetentionPolicy{MaxMsgs: 6}}

	// The old format: literal JSON payloads only, one consumer part-way.
	s := mustOpenStream(t, cfg, wal)
	for i := 1; i <= 4; i++ {
		mustAppend(t, s, "darshan.n.posix", fmt.Sprintf(`{"n":%d}`, i))
	}
	old, err := s.Consumer(ConsumerConfig{Name: "old"})
	if err != nil {
		t.Fatal(err)
	}
	ackN(t, old, 2)

	// Reopen and continue with binary bodies: two of the JSON entries
	// fall to count retention, and both consumers move on.
	s = mustOpenStream(t, cfg, wal)
	for i := 5; i <= 8; i++ {
		appendBody(t, s, "darshan.n.posix", fmt.Sprintf("B%d", i), uint64(i))
	}
	old, err = s.Consumer(ConsumerConfig{Name: "old"})
	if err != nil {
		t.Fatal(err)
	}
	ackN(t, old, 3) // floor 2 -> 5
	fresh, err := s.Consumer(ConsumerConfig{Name: "fresh", StartSeq: 6})
	if err != nil {
		t.Fatal(err)
	}
	ackN(t, fresh, 1)
	before := s.Stats()
	checkConservation(t, s)

	kinds := walRecords(t, wal)
	for _, k := range []byte{segKindMsg, segKindBody, segKindCursor, segKindDrop} {
		if !bytes.Contains(kinds, []byte{k}) {
			t.Fatalf("segment lacks record kind %d: %v", k, kinds)
		}
	}

	s = mustOpenStream(t, cfg, wal)
	after := s.Stats()
	if after != before {
		t.Fatalf("reopen changed stats:\nbefore %+v\nafter  %+v", before, after)
	}
	if after.FirstSeq != 3 || after.LastSeq != 8 || after.DroppedFor[DropByCount] != 2 {
		t.Fatalf("stats %+v, want window [3,8] after 2 count drops", after)
	}
	floors := map[string]uint64{}
	for _, cs := range s.ConsumerStats() {
		floors[cs.Name] = cs.AckFloor
	}
	if floors["old"] != 5 || floors["fresh"] != 6 {
		t.Fatalf("recovered floors %v, want old=5 fresh=6", floors)
	}
	c, err := s.Consumer(ConsumerConfig{Name: "replay", StartSeq: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := c.Fetch(16)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range ds {
		got = append(got, fmt.Sprintf("%d:%s", d.Seq, d.Msg.Payload()))
	}
	want := []string{`3:{"n":3}`, `4:{"n":4}`, "5:json:B5", "6:json:B6", "7:json:B7", "8:json:B8"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
}

// A process without a body codec must refuse a segment holding binary
// bodies rather than treat them as a torn tail and truncate them.
func TestBodySegmentNeedsCodec(t *testing.T) {
	wal := sos.NewMemWAL()
	s := mustOpenStream(t, StreamConfig{Name: "d"}, wal)
	mustAppend(t, s, "darshan.n.posix", `{"n":1}`)
	appendBody(t, s, "darshan.n.posix", "B2", 2)

	codec := bodyCodec
	bodyCodec = nil
	_, err := OpenStream(StreamConfig{Name: "d"}, wal)
	// Without a codec an append keeps the JSON form.
	plain := mustOpenStream(t, StreamConfig{Name: "p"}, nil)
	if _, aerr := plain.Append(Message{Tag: "t", Type: TypeJSON, Record: testBody("B")}); aerr != nil {
		t.Fatal(aerr)
	}
	bodyCodec = codec
	if err == nil {
		t.Fatal("a segment with binary bodies opened without a codec")
	}
	if got := s.Stats().LastSeq; got != 2 {
		t.Fatalf("stream lost records: last seq %d", got)
	}
	if s = mustOpenStream(t, StreamConfig{Name: "d"}, wal); s.Stats().LastSeq != 2 {
		t.Fatalf("segment was truncated: last seq %d", s.Stats().LastSeq)
	}
	if got := plain.entryAt(1); got.body || string(got.payload) != "json:B" {
		t.Fatalf("codec-less append stored %+v, want the JSON form", got)
	}
}

// ackN fetches and acks up to n deliveries.
func ackN(t *testing.T, c *Consumer, n int) {
	t.Helper()
	ds, err := c.Fetch(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if err := c.Ack(d.Seq); err != nil {
			t.Fatal(err)
		}
	}
}
