package ldms

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"darshanldms/internal/event"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/streams"
)

func batchSample(seq uint64) *jsonmsg.Message {
	return &jsonmsg.Message{
		UID: 99066, Exe: jsonmsg.NA, JobID: 1, Rank: int(seq % 8),
		ProducerName: "nid00040", File: jsonmsg.NA, RecordID: 9,
		Module: "POSIX", Type: jsonmsg.TypeMOD, MaxByte: -1, Op: "write",
		Seg: []jsonmsg.Segment{{
			DataSet: jsonmsg.NA, PtSel: -1, IrregHSlab: -1, RegHSlab: -1,
			NDims: -1, NPoints: -1, Off: int64(seq) * 4096, Len: 4096,
			Dur: jsonmsg.Quant6(0.000125), Timestamp: jsonmsg.Quant6(1.6e9 + float64(seq)),
		}},
		Seq: seq,
	}
}

func typedMsg(seq uint64) streams.Message {
	return streams.Message{
		Tag: "darshanConnector", Type: streams.TypeJSON,
		Record:   event.NewRecord(batchSample(seq), jsonmsg.FastEncoder{}),
		Producer: "nid00040", Seq: seq,
	}
}

func TestBatchFrameRoundTripMixed(t *testing.T) {
	in := []streams.Message{
		typedMsg(1),
		{Tag: "raw", Type: streams.TypeJSON, Data: []byte(`{"op":"open"}`), Producer: "p", Seq: 2},
		{Tag: "str", Type: streams.TypeString, Data: []byte("hello")},
		typedMsg(3),
	}
	var buf bytes.Buffer
	if err := WriteBatchFrame(&buf, in); err != nil {
		t.Fatalf("WriteBatchFrame: %v", err)
	}
	out, err := ReadAnyFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("ReadAnyFrame: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d messages, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Tag != in[i].Tag || out[i].Type != in[i].Type ||
			out[i].Producer != in[i].Producer || out[i].Seq != in[i].Seq {
			t.Fatalf("envelope %d mismatch: %+v vs %+v", i, out[i], in[i])
		}
	}
	// Typed records must arrive as typed records (no JSON round trip) with
	// value-identical fields.
	for _, i := range []int{0, 3} {
		r, ok := out[i].Record.(*event.Record)
		if !ok || r.Encoded() {
			t.Fatalf("message %d did not arrive typed", i)
		}
		got, err := r.Fields()
		want, _ := event.Fields(in[i])
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("typed fields %d mismatch (%v):\n got %+v\nwant %+v", i, err, got, want)
		}
	}
	if !bytes.Equal(out[1].Data, in[1].Data) || !bytes.Equal(out[2].Data, in[2].Data) {
		t.Fatalf("opaque payload mismatch")
	}
	// The typed wire form must render the exact same JSON the sender
	// would have shipped eagerly.
	wantJSON := jsonmsg.FastEncoder{}.Encode(batchSample(1))
	if got := out[0].Payload(); !bytes.Equal(got, wantJSON) {
		t.Fatalf("lazy JSON after wire crossing differs:\n got %s\nwant %s", got, wantJSON)
	}
}

func TestBatchFrameInterleavesWithLegacy(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, streams.Message{Tag: "a", Type: streams.TypeJSON, Data: []byte(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if err := WriteBatchFrame(&buf, []streams.Message{typedMsg(1), typedMsg(2)}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, streams.Message{Tag: "b", Type: streams.TypeJSON, Data: []byte(`{}`)}); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(&buf)
	var tags []string
	for i := 0; i < 3; i++ {
		msgs, err := ReadAnyFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		for _, m := range msgs {
			tags = append(tags, m.Tag)
		}
	}
	want := []string{"a", "darshanConnector", "darshanConnector", "b"}
	if !reflect.DeepEqual(tags, want) {
		t.Fatalf("tags = %v, want %v", tags, want)
	}
}

func TestBatchFrameRejectsEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBatchFrame(&buf, nil); err == nil {
		t.Fatalf("empty batch accepted by writer")
	}
	// A hand-built frame declaring zero records must be rejected too.
	frame := []byte{batchMagic, batchVersion, 0, 0, 0, 1, 0}
	if _, err := ReadAnyFrame(bufio.NewReader(bytes.NewReader(frame))); err == nil {
		t.Fatalf("zero-record batch frame accepted by reader")
	}
}

func TestBatchFrameRejectsOversizedDeclaredCount(t *testing.T) {
	// Declares 1<<30 records in a few bytes: must error before allocating.
	payload := binary.AppendUvarint(nil, 1<<30)
	var frame []byte
	frame = append(frame, batchMagic, batchVersion, 0, 0, 0, 0)
	frame = append(frame, payload...)
	binary.BigEndian.PutUint32(frame[2:6], uint32(len(payload)))
	if _, err := ReadAnyFrame(bufio.NewReader(bytes.NewReader(frame))); err == nil {
		t.Fatalf("hostile declared count accepted")
	}
}

func TestBatchFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBatchFrame(&buf, []streams.Message{typedMsg(1), typedMsg(2)}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for n := 0; n < len(full); n++ {
		if _, err := ReadAnyFrame(bufio.NewReader(bytes.NewReader(full[:n]))); err == nil {
			t.Fatalf("truncated frame (%d/%d bytes) accepted", n, len(full))
		}
	}
}

func TestPublishBatchOverTCP(t *testing.T) {
	remote := NewDaemon("agg", "head")
	store := &CountStore{}
	h := remote.AttachStore("darshanConnector", store)
	defer h.Close()
	srv, err := ListenTCP(remote, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	batch := []streams.Message{typedMsg(1), typedMsg(2), typedMsg(3)}
	if err := client.PublishBatch(batch); err != nil {
		t.Fatalf("PublishBatch: %v", err)
	}
	waitFor(t, "batch delivery", func() bool { return store.Count() == 3 })
}

// TestForwarderBatchDrain is the pooled-buffer batch path under -race:
// concurrent publishers fan into one bus; the forwarder drains the spool
// in pooled batches over TCP; a DSOS store ingests the typed records.
// Afterwards every pool Get must be balanced by a Put.
func TestForwarderBatchDrain(t *testing.T) {
	remote := NewDaemon("agg", "head")
	store := &CountStore{}
	h := remote.AttachStore("darshanConnector", store)
	defer h.Close()
	srv, err := ListenTCP(remote, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	local := NewDaemon("node", "nid00040")
	cfg := fastBackoff(srv.Addr())
	cfg.Batch = event.FlushPolicy{MaxRecords: 16, MaxAge: 2 * time.Millisecond}
	fwd, err := NewReconnectingForwarder(local, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const publishers, per = 8, 50
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq := uint64(p*per + i + 1)
				m := typedMsg(seq)
				m.Producer = fmt.Sprintf("nid%05d", p)
				local.Bus().Publish(m)
			}
		}(p)
	}
	wg.Wait()
	if err := fwd.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "all messages stored", func() bool { return store.Count() == publishers*per })
	if err := fwd.Close(); err != nil {
		t.Fatal(err)
	}
	st := fwd.Stats()
	if st.Sent != publishers*per {
		t.Fatalf("sent %d, want %d", st.Sent, publishers*per)
	}
	if gets, puts := BatchPoolCounters(); gets != puts {
		t.Fatalf("batch pool leak: %d gets, %d puts", gets, puts)
	}
	if gets, puts := FramePoolCounters(); gets != puts {
		t.Fatalf("frame buffer pool leak: %d gets, %d puts", gets, puts)
	}
}

// TestBatchReplayDedupExactlyOnce drops the connection mid-stream with
// tail replay enabled: the batch-frame replay must dedup to exactly one
// store of each identity, same as the legacy frame-per-message path.
func TestBatchReplayDedupExactlyOnce(t *testing.T) {
	remote := NewDaemon("agg", "head")
	inner := &CountStore{}
	dedup := NewDedupStore(inner)
	h := remote.AttachStore("darshanConnector", dedup)
	defer h.Close()
	srv, err := ListenTCP(remote, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	local := NewDaemon("node", "nid00040")
	cfg := fastBackoff(srv.Addr())
	cfg.Batch = event.FlushPolicy{MaxRecords: 4}
	cfg.ReplayLast = 8
	fwd, err := NewReconnectingForwarder(local, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()

	const total = 40
	for i := 1; i <= total/2; i++ {
		local.Bus().Publish(typedMsg(uint64(i)))
	}
	waitFor(t, "first half sent", func() bool { return fwd.Stats().Sent >= total/2 })
	srv.DropConnections()
	for i := total/2 + 1; i <= total; i++ {
		local.Bus().Publish(typedMsg(uint64(i)))
	}
	if err := fwd.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "all identities stored", func() bool { return dedup.Stored() == total })
	// Replayed tail frames arrived too; dedup must have absorbed them.
	if inner.Count() != total {
		t.Fatalf("inner store saw %d messages, want exactly %d", inner.Count(), total)
	}
}

// FuzzReadBatchFrame hardens the batch frame codec the way FuzzReadFrame
// hardens the legacy framing: truncation, zero-length batches and
// oversized declared counts must error, never panic or over-allocate.
func FuzzReadBatchFrame(f *testing.F) {
	var typed bytes.Buffer
	_ = WriteBatchFrame(&typed, []streams.Message{typedMsg(1), typedMsg(2)})
	f.Add(typed.Bytes())
	var mixed bytes.Buffer
	_ = WriteBatchFrame(&mixed, []streams.Message{
		{Tag: "raw", Type: streams.TypeJSON, Data: []byte(`{"op":"open"}`), Producer: "p", Seq: 1},
		{Tag: "s", Type: streams.TypeString, Data: []byte("x")},
	})
	f.Add(mixed.Bytes())
	f.Add([]byte{batchMagic, batchVersion, 0, 0, 0, 1, 0})             // zero records
	f.Add([]byte{batchMagic, batchVersion, 0xFF, 0xFF, 0xFF, 0xFF})    // oversized frame
	f.Add([]byte{batchMagic, batchVersion, 0, 0, 0, 3, 0x80, 0x80, 1}) // hostile count varint
	f.Add([]byte{batchMagic, 99, 0, 0, 0, 1, 1})                       // bad version
	f.Add(typed.Bytes()[:8])                                           // truncated
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		msgs, err := ReadAnyFrame(bufio.NewReader(bytes.NewReader(data)))
		// The arena-pooled decoder must make the same accept/reject
		// decision on every input and yield the same message count.
		smsgs, slab, serr := NewBatchDecoder().ReadAnyFrameSlab(bufio.NewReader(bytes.NewReader(data)))
		if (err == nil) != (serr == nil) {
			t.Fatalf("decoders disagree on validity: legacy err=%v, slab err=%v", err, serr)
		}
		if serr == nil {
			if len(smsgs) != len(msgs) {
				t.Fatalf("slab path decoded %d messages, legacy %d", len(smsgs), len(msgs))
			}
			slab.Release()
		}
		if err != nil {
			return
		}
		// A parsed batch must reserialize: every message must be writable
		// as part of a fresh batch frame.
		if len(msgs) > 0 {
			var out bytes.Buffer
			if werr := WriteBatchFrame(&out, msgs); werr != nil {
				t.Fatalf("reserialize failed: %v", werr)
			}
		}
	})
}

// TestBatchDecoderSlabMatchesLegacy: the arena-pooled decode path must be
// observationally identical to the allocating one — same envelopes, same
// typed fields, same opaque payloads — for a mixed batch and for a legacy
// single-message frame.
func TestBatchDecoderSlabMatchesLegacy(t *testing.T) {
	in := []streams.Message{
		typedMsg(1),
		{Tag: "raw", Type: streams.TypeJSON, Data: []byte(`{"op":"open"}`), Producer: "p", Seq: 2},
		{Tag: "str", Type: streams.TypeString, Data: []byte("hello")},
		typedMsg(3),
	}
	var buf bytes.Buffer
	if err := WriteBatchFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, streams.Message{
		Tag: "legacy", Type: streams.TypeJSON, Data: []byte(`{"op":"close"}`), Producer: "q", Seq: 9,
	}); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()

	legacyBR := bufio.NewReader(bytes.NewReader(wire))
	slabBR := bufio.NewReader(bytes.NewReader(wire))
	dec := NewBatchDecoder()
	for frame := 0; frame < 2; frame++ {
		want, err := ReadAnyFrame(legacyBR)
		if err != nil {
			t.Fatalf("frame %d legacy: %v", frame, err)
		}
		got, slab, err := dec.ReadAnyFrameSlab(slabBR)
		if err != nil {
			t.Fatalf("frame %d slab: %v", frame, err)
		}
		if len(got) != len(want) {
			t.Fatalf("frame %d: %d messages via slab, %d via legacy", frame, len(got), len(want))
		}
		for i := range want {
			if got[i].Tag != want[i].Tag || got[i].Type != want[i].Type ||
				got[i].Producer != want[i].Producer || got[i].Seq != want[i].Seq {
				t.Fatalf("frame %d msg %d envelope mismatch:\n got %+v\nwant %+v", frame, i, got[i], want[i])
			}
			wantFields, wantErr := event.Fields(want[i])
			gotFields, gotErr := event.Fields(got[i])
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("frame %d msg %d parse disagreement: %v vs %v", frame, i, gotErr, wantErr)
			}
			if wantErr == nil && !reflect.DeepEqual(gotFields, wantFields) {
				t.Fatalf("frame %d msg %d fields mismatch:\n got %+v\nwant %+v", frame, i, gotFields, wantFields)
			}
			if !bytes.Equal(got[i].Data, want[i].Data) {
				t.Fatalf("frame %d msg %d payload mismatch", frame, i)
			}
		}
		// Opaque payloads must be self-owned copies: releasing the slab and
		// decoding the next frame into the same decoder must not disturb
		// them (the durable stream retains these bytes indefinitely).
		rawBefore := append([]byte(nil), got[1%len(got)].Data...)
		slab.Release()
		if !bytes.Equal(got[1%len(got)].Data, rawBefore) {
			t.Fatalf("frame %d: opaque payload changed after slab release", frame)
		}
	}
}
