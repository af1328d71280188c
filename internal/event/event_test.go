package event

import (
	"bytes"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/streams"
)

// countingEncoder wraps the fast encoder and counts real Encode calls —
// the probe behind every exactly-once assertion in this file.
type countingEncoder struct {
	calls *atomic.Uint64
}

func (e countingEncoder) Name() string { return "counting" }
func (e countingEncoder) Encode(m *jsonmsg.Message) []byte {
	e.calls.Add(1)
	return jsonmsg.FastEncoder{}.Encode(m)
}
func (e countingEncoder) SimCost() time.Duration { return 0 }

func sampleMessage() *jsonmsg.Message {
	return &jsonmsg.Message{
		UID: 99066, Exe: "/projects/hacc/hacc-io", JobID: 259903, Rank: 7,
		ProducerName: "nid00040", File: "/lscratch/out.dat", RecordID: 9,
		Module: "POSIX", Type: jsonmsg.TypeMOD, MaxByte: 4095, Switches: 1,
		Flushes: 2, Cnt: 3, Op: "write",
		Seg: []jsonmsg.Segment{{
			DataSet: jsonmsg.NA, PtSel: -1, IrregHSlab: -1, RegHSlab: -1,
			NDims: -1, NPoints: -1, Off: 1024, Len: 4096,
			Dur: jsonmsg.Quant6(0.000125), Timestamp: jsonmsg.Quant6(1.6e9 + 1.25),
		}},
		Seq: 41,
	}
}

func TestRecordEncodesLazilyAndOnce(t *testing.T) {
	var calls atomic.Uint64
	r := NewRecord(sampleMessage(), countingEncoder{&calls})
	if got := calls.Load(); got != 0 {
		t.Fatalf("encoder ran %d times before any Payload call", got)
	}
	p1 := r.Payload()
	p2 := r.Payload()
	if calls.Load() != 1 {
		t.Fatalf("encoder ran %d times for two Payload calls, want exactly 1", calls.Load())
	}
	if !bytes.Equal(p1, p2) {
		t.Fatalf("Payload not stable across calls")
	}
	want := jsonmsg.FastEncoder{}.Encode(sampleMessage())
	if !bytes.Equal(p1, want) {
		t.Fatalf("lazy payload differs from eager encode:\n got %s\nwant %s", p1, want)
	}
}

func TestRecordPayloadConcurrentSingleEncode(t *testing.T) {
	var calls atomic.Uint64
	r := NewRecord(sampleMessage(), countingEncoder{&calls})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = r.Payload()
			_, _ = r.Fields()
		}()
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("concurrent Payload calls encoded %d times, want exactly 1", calls.Load())
	}
}

func TestRecordCountEncodes(t *testing.T) {
	var counter atomic.Uint64
	r := NewRecord(sampleMessage(), nil).CountEncodes(&counter)
	if counter.Load() != 0 {
		t.Fatalf("counter moved before encode")
	}
	p := r.Payload()
	r.Payload()
	if got := counter.Load(); got != uint64(len(p)) {
		t.Fatalf("counter = %d after two Payload calls, want %d (one encode)", got, len(p))
	}
}

func TestFromPayloadParsesLazilyAndOnce(t *testing.T) {
	payload := jsonmsg.FastEncoder{}.Encode(sampleMessage())
	r := FromPayload(payload)
	if r.msg != nil {
		t.Fatalf("bytes-first record has fields before any Fields call")
	}
	m1, err := r.Fields()
	if err != nil {
		t.Fatalf("Fields: %v", err)
	}
	m2, _ := r.Fields()
	if m1 != m2 {
		t.Fatalf("Fields not cached: got distinct pointers")
	}
	if m1.Rank != 7 || m1.Seg[0].Len != 4096 {
		t.Fatalf("parsed fields wrong: %+v", m1)
	}
	if !bytes.Equal(r.Payload(), payload) {
		t.Fatalf("bytes-first Payload must return the original bytes")
	}
}

func TestFromPayloadParseErrorSticky(t *testing.T) {
	r := FromPayload([]byte("{not json"))
	if _, err := r.Fields(); err == nil {
		t.Fatalf("want parse error")
	}
	if _, err := r.Fields(); err == nil {
		t.Fatalf("parse error must be sticky")
	}
}

func TestFieldsHelper(t *testing.T) {
	msg := sampleMessage()
	typed := streams.Message{Record: NewRecord(msg, nil)}
	got, err := Fields(typed)
	if err != nil || got != msg {
		t.Fatalf("Fields(typed) = %v, %v; want the record's message", got, err)
	}
	raw := streams.Message{Data: jsonmsg.FastEncoder{}.Encode(msg)}
	parsed, err := Fields(raw)
	if err != nil {
		t.Fatalf("Fields(raw): %v", err)
	}
	parsed.Seq = msg.Seq // Seq travels out-of-band, not in the payload
	if !reflect.DeepEqual(parsed, msg) {
		t.Fatalf("raw parse differs from typed fields:\n got %+v\nwant %+v", parsed, msg)
	}
	if !Lazy(typed) || Lazy(raw) {
		t.Fatalf("Lazy misreports carrier form")
	}
}

// TestQuant6RoundTrip pins the property the whole lazy plane rests on:
// after source quantization, JSON encode → parse is the identity, so
// consuming typed fields is indistinguishable from parsing the bytes.
func TestQuant6RoundTrip(t *testing.T) {
	for _, v := range []float64{0, 0.000125, 1.25e-7, 3.9999995, 1.6e9 + 123.456789, 0.001} {
		q := jsonmsg.Quant6(v)
		if qq := jsonmsg.Quant6(q); qq != q {
			t.Fatalf("Quant6 not idempotent for %v: %v != %v", v, qq, q)
		}
	}
	msg := sampleMessage()
	parsed, err := jsonmsg.Parse(jsonmsg.FastEncoder{}.Encode(msg))
	if err != nil {
		t.Fatal(err)
	}
	parsed.Seq = msg.Seq // Seq travels out-of-band, not in the payload
	if !reflect.DeepEqual(parsed, msg) {
		t.Fatalf("encode/parse round trip not identity:\n got %+v\nwant %+v", parsed, msg)
	}
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	msgs := []*jsonmsg.Message{
		sampleMessage(),
		{}, // zero message
		{UID: -5, Exe: "exe\nwith\"quotes", Rank: -1, MaxByte: -1,
			Seg: []jsonmsg.Segment{{Dur: 1.5}, {Off: 1 << 40, Len: -9, Timestamp: 1.6e9}}},
	}
	for i, m := range msgs {
		enc := AppendMessage(nil, m)
		got, n, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("msg %d: decode: %v", i, err)
		}
		if n != len(enc) {
			t.Fatalf("msg %d: consumed %d of %d bytes", i, n, len(enc))
		}
		// Normalize the empty-vs-nil Seg distinction the codec cannot see.
		if len(m.Seg) == 0 {
			got.Seg = m.Seg
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("msg %d: round trip mismatch:\n got %+v\nwant %+v", i, got, m)
		}
	}
}

func TestBinaryCodecTruncation(t *testing.T) {
	enc := AppendMessage(nil, sampleMessage())
	for n := 0; n < len(enc); n++ {
		if _, _, err := DecodeMessage(enc[:n]); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded", n, len(enc))
		}
	}
}

func TestBinaryCodecHostileSegCount(t *testing.T) {
	// A declared seg count far beyond the remaining bytes must error out
	// instead of reserving memory for it.
	m := &jsonmsg.Message{}
	enc := AppendMessage(nil, m)
	// The seg count is the last varint; rewrite it to something huge.
	hostile := append(append([]byte(nil), enc[:len(enc)-1]...), 0xFF, 0xFF, 0xFF, 0xFF, 0x0F)
	if _, _, err := DecodeMessage(hostile); err == nil {
		t.Fatalf("hostile seg count accepted")
	}
}

func TestBatchFlushPolicies(t *testing.T) {
	mk := func() streams.Message {
		return streams.Message{Tag: "t", Data: []byte("0123456789")}
	}
	var b Batch
	countP := FlushPolicy{MaxRecords: 3}
	if b.Add(mk(), time.Time{}, countP) || b.Add(mk(), time.Time{}, countP) {
		t.Fatalf("batch full before MaxRecords")
	}
	if !b.Add(mk(), time.Time{}, countP) {
		t.Fatalf("batch not full at MaxRecords")
	}
	b.Reset()
	if b.Len() != 0 || b.Bytes() != 0 {
		t.Fatalf("Reset left state: len=%d bytes=%d", b.Len(), b.Bytes())
	}

	byteP := FlushPolicy{MaxRecords: 100, MaxBytes: 25}
	b.Add(mk(), time.Time{}, byteP)
	b.Add(mk(), time.Time{}, byteP)
	if !b.Add(mk(), time.Time{}, byteP) {
		t.Fatalf("batch not full at MaxBytes (30 >= 25)")
	}
	b.Reset()

	ageP := FlushPolicy{MaxRecords: 100, MaxAge: time.Second}
	t0 := time.Unix(100, 0)
	b.Add(mk(), t0, ageP)
	if b.Due(t0.Add(999*time.Millisecond), ageP) {
		t.Fatalf("batch due before MaxAge")
	}
	if !b.Due(t0.Add(time.Second), ageP) {
		t.Fatalf("batch not due at MaxAge")
	}
	if !ageP.Enabled() || (FlushPolicy{}).Enabled() || (FlushPolicy{MaxRecords: 1}).Enabled() {
		t.Fatalf("FlushPolicy.Enabled wrong")
	}
}

func TestBatchSizeOfUnencodedTyped(t *testing.T) {
	// An unencoded typed record must contribute a size estimate without
	// triggering the encode.
	var calls atomic.Uint64
	r := NewRecord(sampleMessage(), countingEncoder{&calls})
	var b Batch
	b.Add(streams.Message{Record: r}, time.Time{}, FlushPolicy{MaxRecords: 10})
	if b.Bytes() == 0 {
		t.Fatalf("typed record contributed no size estimate")
	}
	if calls.Load() != 0 {
		t.Fatalf("sizeOf forced an encode")
	}
}

func TestPoolsBalance(t *testing.T) {
	var bp BatchPool
	b1, b2 := bp.Get(), bp.Get()
	b1.Add(streams.Message{Data: []byte("x")}, time.Time{}, FlushPolicy{MaxRecords: 4})
	bp.Put(b1)
	bp.Put(b2)
	if gets, puts := bp.Counters(); gets != 2 || puts != 2 {
		t.Fatalf("BatchPool counters = %d/%d, want 2/2", gets, puts)
	}
	if b := bp.Get(); b.Len() != 0 {
		t.Fatalf("pooled batch not reset")
	} else {
		bp.Put(b)
	}

	var fp BufferPool
	buf := fp.Get()
	buf = append(buf, 1, 2, 3)
	fp.Put(buf)
	if buf2 := fp.Get(); len(buf2) != 0 {
		t.Fatalf("pooled buffer not truncated")
	} else {
		fp.Put(buf2)
	}
	if gets, puts := fp.Counters(); gets != puts {
		t.Fatalf("BufferPool leak: %d gets, %d puts", gets, puts)
	}
}
