package event

import (
	"bytes"
	"reflect"
	"sync/atomic"
	"testing"

	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

// fetchAll drains a fresh consumer over s.
func fetchAll(t *testing.T, s *streams.DurableStream, name string) []streams.Delivery {
	t.Helper()
	c, err := s.Consumer(streams.ConsumerConfig{Name: name})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := c.Fetch(64)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// A typed record appended to a durable stream is stored as its binary
// body without a JSON encode, and the record fetched back — live or after
// a reopen — answers Payload() with exactly the FastEncoder bytes and
// Fields() with the original values.
func TestDurableBodyRoundTrip(t *testing.T) {
	wal := sos.NewMemWAL()
	cfg := streams.StreamConfig{Name: "d"}
	s, err := streams.OpenStream(cfg, wal)
	if err != nil {
		t.Fatal(err)
	}
	msgs := []*jsonmsg.Message{sampleMessage(), sampleMessage()}
	msgs[1].Seg = append(msgs[1].Seg, msgs[1].Seg[0])
	msgs[1].Exe = "quote\" and \\ and é"
	var calls atomic.Uint64
	for _, m := range msgs {
		if _, err := s.Append(streams.Message{
			Tag: "darshanConnector", Type: streams.TypeJSON,
			Record: NewRecord(m, countingEncoder{&calls}), Producer: "nid00040", Seq: m.Seq,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("append JSON-encoded %d records", n)
	}
	if st := s.Stats(); st.Bytes != int64(len(AppendMessage(nil, msgs[0]))+len(AppendMessage(nil, msgs[1]))) {
		t.Fatalf("retained %d bytes, want the two binary bodies", st.Bytes)
	}

	reopened, err := streams.OpenStream(cfg, wal)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []*streams.DurableStream{s, reopened} {
		ds := fetchAll(t, src, "c")
		if len(ds) != len(msgs) {
			t.Fatalf("fetched %d of %d", len(ds), len(msgs))
		}
		for i, d := range ds {
			r, ok := d.Msg.Record.(*Record)
			if !ok || d.Msg.Data != nil {
				t.Fatalf("delivery %d is not a body record: %+v", i, d.Msg)
			}
			want := jsonmsg.FastEncoder{}.Encode(msgs[i])
			if got := d.Msg.Payload(); !bytes.Equal(got, want) {
				t.Fatalf("delivery %d Payload():\n got %s\nwant %s", i, got, want)
			}
			f, err := Fields(d.Msg)
			if err != nil || !reflect.DeepEqual(f, msgs[i]) {
				t.Fatalf("delivery %d Fields() = %+v, %v", i, f, err)
			}
			// A stored body is handed on verbatim.
			if body, ok := r.AppendBody(nil); !ok || !bytes.Equal(body, AppendMessage(nil, msgs[i])) {
				t.Fatalf("delivery %d body not verbatim", i)
			}
		}
	}
}

// A body-first record decodes once, reports corrupt bodies as a sticky
// error, and only records with typed fields or a body offer one.
func TestFromBody(t *testing.T) {
	body := AppendMessage(nil, sampleMessage())
	r := FromBody(body)
	if r.Encoded() || r.msg != nil {
		t.Fatal("body-first record materialized eagerly")
	}
	f1, err := r.Fields()
	f2, _ := r.Fields()
	if err != nil || f1 != f2 || !reflect.DeepEqual(f1, sampleMessage()) {
		t.Fatalf("Fields() = %+v, %v (cached %v)", f1, err, f1 == f2)
	}
	for _, bad := range [][]byte{body[:len(body)-3], append(append([]byte{}, body...), 0)} {
		br := FromBody(bad)
		if _, err := br.Fields(); err == nil {
			t.Fatalf("corrupt body of %d bytes decoded", len(bad))
		}
		if br.Payload() != nil {
			t.Fatal("corrupt body rendered a payload")
		}
	}
	if _, ok := FromPayload([]byte(`{"uid":1}`)).AppendBody(nil); ok {
		t.Fatal("an unparsed bytes-first record offered a binary body")
	}
	if b, ok := NewRecord(sampleMessage(), nil).AppendBody([]byte{7}); !ok || !bytes.Equal(b, append([]byte{7}, body...)) {
		t.Fatal("typed record body differs from AppendMessage")
	}
}
