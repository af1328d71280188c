// dlc-fuzzcorpus regenerates the checked-in fuzz seed corpora under each
// package's testdata/fuzz/<Target>/ directory, in the `go test fuzz v1`
// file format the Go fuzzer loads automatically. The seeds complement the
// in-code f.Add cases with serialized hostile inputs: truncated envelopes,
// flipped checksum bytes, implausible declared counts, hostile varints.
//
// Usage:
//
//	dlc-fuzzcorpus [-root .]
//
// The tool is deterministic: running it twice produces identical files, so
// the corpora can be diffed like any other golden output.
package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"darshanldms/internal/darshan"
	"darshanldms/internal/darshanlog"
	"darshanldms/internal/event"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/ldms"
	"darshanldms/internal/scenario"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

func main() {
	root := flag.String("root", ".", "repository root (corpora land under <root>/internal/...)")
	flag.Parse()

	n := 0
	write := func(pkg, target, name string, data []byte) {
		dir := filepath.Join(*root, pkg, "testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			fatal(err)
		}
		n++
	}

	// --- darshanlog.FuzzRead: binary log parser ---
	log := "internal/darshanlog"
	valid := validLog()
	write(log, "FuzzRead", "valid-log", valid)
	write(log, "FuzzRead", "truncated-gzip-body", valid[:len(valid)*3/4])
	crc := corrupt(valid, len(valid)-6) // inside the gzip CRC32/ISIZE trailer
	write(log, "FuzzRead", "bad-gzip-crc", crc)
	// A well-formed gzip envelope whose payload is all 0xFF: the varint
	// decoder sees maximal continuation bytes and implausible counts.
	write(log, "FuzzRead", "hostile-varint-payload",
		gzipEnvelope(darshanlog.Magic, bytes.Repeat([]byte{0xFF}, 64)))
	write(log, "FuzzRead", "empty-gzip-payload", gzipEnvelope(darshanlog.Magic, nil))

	// --- jsonmsg.FuzzParse: store-side JSON parser ---
	jm := "internal/jsonmsg"
	m := sampleJSONMsg()
	enc := jsonmsg.FastEncoder{}.Encode(&m)
	write(jm, "FuzzParse", "valid-message", enc)
	write(jm, "FuzzParse", "truncated-message", enc[:len(enc)/2])
	write(jm, "FuzzParse", "deep-nesting",
		append(append(bytes.Repeat([]byte(`{"seg":[`), 64), '1'), bytes.Repeat([]byte(`]}`), 64)...))
	write(jm, "FuzzParse", "huge-number", []byte(`{"uid":1`+string(bytes.Repeat([]byte("0"), 400))+`}`))
	write(jm, "FuzzParse", "duplicate-keys", []byte(`{"module":"POSIX","module":"MPIIO","seg":[{"off":1,"off":2}]}`))
	write(jm, "FuzzParse", "nul-and-invalid-utf8", []byte("{\"file\":\"\x00\xff\xfe\",\"module\":\"POSIX\"}"))

	// --- event.FuzzSlabCodec: compact binary record codec (the target
	// differentially decodes each seed through the heap and slab paths) ---
	ev := "internal/event"
	rec := event.AppendMessage(nil, &m)
	write(ev, "FuzzSlabCodec", "valid-record", rec)
	multi := m
	multi.Seg = append(append([]jsonmsg.Segment{}, m.Seg...), m.Seg[0], m.Seg[0])
	write(ev, "FuzzSlabCodec", "multi-segment-record", event.AppendMessage(nil, &multi))
	write(ev, "FuzzSlabCodec", "empty-record", event.AppendMessage(nil, &jsonmsg.Message{}))
	write(ev, "FuzzSlabCodec", "truncated-record", rec[:len(rec)/2])
	write(ev, "FuzzSlabCodec", "corrupt-mid-record", corrupt(rec, len(rec)/2))
	// Maximal varint continuation bytes: hostile string lengths and
	// segment counts for the bounded-allocation checks.
	write(ev, "FuzzSlabCodec", "hostile-varints", bytes.Repeat([]byte{0xFF}, 48))

	// --- ldms.FuzzReadFrame: legacy single-message framing ---
	lp := "internal/ldms"
	var frame bytes.Buffer
	if err := ldms.WriteFrame(&frame, streams.Message{
		Tag: "darshanConnector", Type: streams.TypeJSON, Data: enc, Producer: "nid00046", Seq: 7,
	}); err != nil {
		fatal(err)
	}
	write(lp, "FuzzReadFrame", "valid-json-frame", frame.Bytes())
	write(lp, "FuzzReadFrame", "truncated-frame", frame.Bytes()[:len(frame.Bytes())/2])
	write(lp, "FuzzReadFrame", "oversized-declared-length",
		append([]byte{0xFF, 0xFF, 0xFF, 0x00}, frame.Bytes()[4:]...))
	var sframe bytes.Buffer
	if err := ldms.WriteFrame(&sframe, streams.Message{Tag: "t", Type: streams.TypeString, Data: []byte("x")}); err != nil {
		fatal(err)
	}
	write(lp, "FuzzReadFrame", "string-frame", sframe.Bytes())

	// --- ldms.FuzzReadBatchFrame: typed batch framing ---
	var batch bytes.Buffer
	if err := ldms.WriteBatchFrame(&batch, []streams.Message{
		{Tag: "darshanConnector", Type: streams.TypeJSON, Data: enc, Producer: "nid00046", Seq: 1},
		{Tag: "darshanConnector", Type: streams.TypeJSON, Data: enc, Producer: "nid00046", Seq: 2},
		{Tag: "s", Type: streams.TypeString, Data: []byte("meta")},
	}); err != nil {
		fatal(err)
	}
	b := batch.Bytes()
	write(lp, "FuzzReadBatchFrame", "valid-batch", b)
	write(lp, "FuzzReadBatchFrame", "truncated-batch", b[:len(b)/2])
	// Keep the magic+version+length header, replace the body with maximal
	// varint continuation bytes: a hostile declared record count.
	write(lp, "FuzzReadBatchFrame", "hostile-count-varint",
		append(append([]byte{}, b[:6]...), bytes.Repeat([]byte{0xFF}, 16)...))
	write(lp, "FuzzReadBatchFrame", "corrupt-body", corrupt(b, len(b)/2))
	// ReadAnyFrame also accepts the legacy framing; seed that path too.
	write(lp, "FuzzReadBatchFrame", "legacy-frame", frame.Bytes())

	// --- sos.FuzzRestore: container snapshot parser ---
	sp := "internal/sos"
	snap := validSnapshot()
	write(sp, "FuzzRestore", "valid-snapshot", snap)
	write(sp, "FuzzRestore", "truncated-snapshot", snap[:len(snap)/2])
	write(sp, "FuzzRestore", "corrupt-header", corrupt(snap, 16))
	write(sp, "FuzzRestore", "corrupt-tail", corrupt(snap, len(snap)-4))
	write(sp, "FuzzRestore", "hostile-count-region",
		append(append([]byte{}, snap[:16]...), bytes.Repeat([]byte{0xFF}, 32)...))
	write(sp, "FuzzRestore", "hostile-object-count", hostileSnapshot(snap[:12]))

	// --- streams.FuzzStreamCursor: durable segment recovery + cursor resume ---
	// The first two bytes of each seed are the consumer StartSeq the target
	// derives; the rest is segment (or record-body) bytes.
	sm := "internal/streams"
	seg := validSegment(7)
	write(sm, "FuzzStreamCursor", "valid-segment", append([]byte{2, 0}, seg...))
	// Typed records are persisted as binary bodies: a segment of body
	// records, one torn inside a body, and an old JSON segment that a
	// newer process continued with bodies.
	bseg := validSegment(1)
	write(sm, "FuzzStreamCursor", "binary-body-segment", append([]byte{2, 0}, bseg...))
	write(sm, "FuzzStreamCursor", "binary-body-torn", append([]byte{1, 0}, bseg[:len(bseg)*2/3]...))
	write(sm, "FuzzStreamCursor", "json-then-binary-segment", append([]byte{3, 0}, validSegment(4)...))
	write(sm, "FuzzStreamCursor", "torn-tail", append([]byte{1, 0}, seg[:len(seg)*3/4]...))
	write(sm, "FuzzStreamCursor", "corrupt-mid-record", append([]byte{0, 0}, corrupt(seg, len(seg)/2)...))
	write(sm, "FuzzStreamCursor", "future-start-seq", append([]byte{0xFF, 0xFF}, seg...))
	// A frame whose declared string length is maximal: the record decoders'
	// bounded-allocation path.
	write(sm, "FuzzStreamCursor", "hostile-string-length",
		[]byte{0, 0, 0x01, 9, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0xFF, 0xFF, 0xFF, 0xFF})
	write(sm, "FuzzStreamCursor", "empty", nil)

	// --- streams.FuzzRetention: retention-policy op sequences ---
	// Bytes 0-2 draw the policy (MaxMsgs, MaxBytes, MaxAge); then (op, arg)
	// pairs: append sized payloads, jump the clock, crash and reopen.
	write(sm, "FuzzRetention", "count-bound-churn",
		append([]byte{4, 0, 0}, bytes.Repeat([]byte{0, 32}, 24)...))
	write(sm, "FuzzRetention", "byte-bound-churn",
		append([]byte{0, 2, 0}, bytes.Repeat([]byte{1, 255}, 24)...))
	write(sm, "FuzzRetention", "age-with-clock-jumps",
		append([]byte{0, 0, 3}, bytes.Repeat([]byte{0, 16, 2, 200}, 12)...))
	write(sm, "FuzzRetention", "crash-reopen-cycle",
		append([]byte{3, 3, 2}, bytes.Repeat([]byte{0, 24, 3, 0, 2, 50}, 8)...))
	write(sm, "FuzzRetention", "all-bounds-tight",
		append([]byte{1, 1, 1}, bytes.Repeat([]byte{0, 200, 2, 255, 3, 0}, 8)...))

	// --- topo.FuzzRing: consistent-hash ring op sequences ---
	// Two bytes per op: (op%4, arg%8) — add, remove, single-owner lookup,
	// replica-set lookup. The seeds drive membership churn around lookups
	// so the order-independence check replays non-trivial histories.
	tp := "internal/topo"
	write(tp, "FuzzRing", "add-all-remove-all",
		append(bytes.Repeat([]byte{0, 0}, 1), append(grow8(), shrink8()...)...))
	write(tp, "FuzzRing", "churn-with-lookups",
		[]byte{0, 0, 0, 1, 2, 3, 3, 5, 1, 0, 2, 3, 0, 2, 3, 1, 1, 1, 2, 7, 0, 4, 3, 2})
	write(tp, "FuzzRing", "duplicate-adds-absent-removes",
		[]byte{0, 5, 0, 5, 1, 5, 1, 5, 0, 5, 1, 6, 3, 4})
	write(tp, "FuzzRing", "single-member-lookups",
		append([]byte{0, 7}, bytes.Repeat([]byte{2, 1, 3, 6}, 6)...))
	write(tp, "FuzzRing", "empty-ring-lookups",
		bytes.Repeat([]byte{2, 0, 3, 7}, 4))

	// --- scenario.FuzzScenarioSpec: relaxed-JSON scenario spec parser ---
	// Every curated suite spec is a seed (the richest valid inputs the
	// parser sees in practice), plus hostile variants targeting each
	// rejection path: duplicate keys, unknown fields, depth, number range,
	// truncation, comment handling.
	sc := "internal/scenario"
	srcs := scenario.Sources()
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		write(sc, "FuzzScenarioSpec", "suite-"+name, srcs[name])
	}
	first := srcs[names[0]]
	write(sc, "FuzzScenarioSpec", "truncated-spec", first[:len(first)/2])
	write(sc, "FuzzScenarioSpec", "duplicate-key",
		[]byte(`{"name":"a","name":"b","horizon_s":1,"fs":"NFS","cluster":{"nodes":24},"arrival":{"kind":"poisson","rate_per_s":1},"jobs":[{"kind":"checkpoint","weight":1}]}`))
	write(sc, "FuzzScenarioSpec", "unknown-field",
		[]byte(`{"name":"a","horizon_s":1,"fs":"NFS","wall_clock":true,"cluster":{"nodes":24},"arrival":{"kind":"poisson","rate_per_s":1},"jobs":[{"kind":"checkpoint","weight":1}]}`))
	write(sc, "FuzzScenarioSpec", "deep-nesting",
		append(append(bytes.Repeat([]byte(`{"cluster":`), 24), `{}`...), bytes.Repeat([]byte(`}`), 24)...))
	write(sc, "FuzzScenarioSpec", "huge-number",
		[]byte(`{"name":"a","horizon_s":1e99,"fs":"NFS","cluster":{"nodes":24},"arrival":{"kind":"poisson","rate_per_s":1},"jobs":[{"kind":"checkpoint","weight":1}]}`))
	write(sc, "FuzzScenarioSpec", "comment-only", []byte("# nothing but commentary\n// and more\n"))
	write(sc, "FuzzScenarioSpec", "comment-markers-in-strings",
		[]byte(`{"name":"a#b//c","horizon_s":1,"fs":"NFS","cluster":{"nodes":24},"arrival":{"kind":"poisson","rate_per_s":1},"jobs":[{"kind":"checkpoint","weight":1}]}`))

	fmt.Fprintf(os.Stderr, "dlc-fuzzcorpus: wrote %d seed files under %s\n", n, *root)
}

// validSegment builds a durable-stream segment through the public API: six
// appends under count retention (drop markers), a consumer acking three
// (cursor records), then the raw segment bytes. Messages from the
// typedFrom-th on are typed records, which the stream stores as binary
// bodies; the ones before are literal JSON payloads.
func validSegment(typedFrom int) []byte {
	wal := sos.NewMemWAL()
	s, err := streams.OpenStream(streams.StreamConfig{
		Name:      "seed",
		Subjects:  []string{"darshan.>"},
		Retention: streams.RetentionPolicy{MaxMsgs: 4},
	}, wal)
	if err != nil {
		fatal(err)
	}
	for i := 1; i <= 6; i++ {
		m := streams.Message{
			Tag: "darshan.nid00040.POSIX", Type: streams.TypeJSON,
			Producer: "nid00040", Seq: uint64(i),
		}
		if i >= typedFrom {
			msg := sampleJSONMsg()
			msg.Seq = uint64(i)
			m.Record = event.NewRecord(&msg, nil)
		} else {
			m.Data = []byte(fmt.Sprintf(`{"n":%d}`, i))
		}
		if _, err := s.Append(m); err != nil {
			fatal(err)
		}
	}
	c, err := s.Consumer(streams.ConsumerConfig{Name: "seed-consumer"})
	if err != nil {
		fatal(err)
	}
	ds, err := c.Fetch(3)
	if err != nil {
		fatal(err)
	}
	for _, d := range ds {
		if err := c.Ack(d.Seq); err != nil {
			fatal(err)
		}
	}
	r, err := wal.Open()
	if err != nil {
		fatal(err)
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		fatal(err)
	}
	return data
}

// grow8 and shrink8 emit ring-op pairs adding then removing members
// n0..n7, exercising every churn transition including down to empty.
func grow8() []byte {
	var out []byte
	for i := byte(0); i < 8; i++ {
		out = append(out, 0, i)
	}
	return out
}

func shrink8() []byte {
	var out []byte
	for i := byte(0); i < 8; i++ {
		out = append(out, 1, i, 2, i)
	}
	return out
}

// corrupt returns a copy of data with the byte at i inverted.
func corrupt(data []byte, i int) []byte {
	out := append([]byte{}, data...)
	out[i] ^= 0xFF
	return out
}

// hostileSnapshot is a well-formed snapshot header (magic taken from a
// real snapshot) declaring one schema with 2^32 objects, and then no
// objects: Restore must fail on the missing data without first reserving
// room for the declared count.
func hostileSnapshot(magic []byte) []byte {
	var body bytes.Buffer
	u64 := func(v uint64) { body.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	str := func(s string) { u64(uint64(len(s))); body.WriteString(s) }
	str("c")
	u64(1) // next object id
	u64(1) // schemas
	str("s")
	u64(1) // attributes
	str("a")
	u64(uint64(sos.TypeInt64))
	u64(1 << 32) // objects
	var buf bytes.Buffer
	buf.Write(magic)
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(body.Bytes()); err != nil {
		fatal(err)
	}
	if err := zw.Close(); err != nil {
		fatal(err)
	}
	return buf.Bytes()
}

// gzipEnvelope wraps payload in the log container framing (magic,
// version 1, gzip body) so the seed reaches the inner decoder.
func gzipEnvelope(magic string, payload []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(magic)
	buf.Write([]byte{1, 0, 0, 0}) // version, little-endian uint32
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(payload); err != nil {
		fatal(err)
	}
	if err := zw.Close(); err != nil {
		fatal(err)
	}
	return buf.Bytes()
}

func validLog() []byte {
	sum := &darshan.Summary{
		JobID: 259903, UID: 99066, Exe: "/home/user/mpi-io-test",
		Start: 0, End: 90 * time.Second, NProcs: 4, Events: 123,
		Records: []*darshan.Record{{
			Module: darshan.ModPOSIX, RecordID: darshan.RecordID("/nscratch/a"), Rank: 0,
			File: "/nscratch/a", Opens: 2, Closes: 2, Reads: 5, Writes: 10,
			BytesRead: 5 << 20, BytesWritten: 10 << 20, MaxByteWritten: 10<<20 - 1,
		}},
	}
	dxt := []darshan.DXTTrace{{
		Module: darshan.ModPOSIX, Rank: 0, RecordID: darshan.RecordID("/nscratch/a"),
		Segments: []darshan.DXTSegment{
			{Op: darshan.OpOpen, Start: time.Second, End: time.Second + time.Millisecond},
			{Op: darshan.OpWrite, Offset: 0, Length: 1 << 20, Start: 2 * time.Second, End: 3 * time.Second},
		},
	}}
	var buf bytes.Buffer
	if err := darshanlog.Write(&buf, sum, dxt); err != nil {
		fatal(err)
	}
	return buf.Bytes()
}

func sampleJSONMsg() jsonmsg.Message {
	return jsonmsg.Message{
		UID: 99066, Exe: "/projects/mpi-io-test", JobID: 259903, Rank: 3,
		ProducerName: "nid00046", File: "/nscratch/mpi-io-test.dat",
		RecordID: 1601543006480900062 % (1 << 62), Module: "POSIX", Type: jsonmsg.TypeMET,
		MaxByte: -1, Switches: -1, Flushes: -1, Cnt: 1, Op: "open",
		Seg: []jsonmsg.Segment{{
			DataSet: jsonmsg.NA, PtSel: -1, IrregHSlab: -1, RegHSlab: -1, NDims: -1,
			NPoints: -1, Off: 0, Len: 16 << 20, Dur: 0.35, Timestamp: jsonmsg.EpochBase + 12.5,
		}},
	}
}

func validSnapshot() []byte {
	c := sos.NewContainer("fz")
	sch, err := sos.NewSchema("ev", []sos.AttrSpec{
		{Name: "job_id", Type: sos.TypeInt64},
		{Name: "name", Type: sos.TypeString},
		{Name: "v", Type: sos.TypeFloat64},
	})
	if err != nil {
		fatal(err)
	}
	if err := c.AddSchema(sch); err != nil {
		fatal(err)
	}
	if _, err := c.AddIndex(sos.IndexSpec{Name: "j", Schema: "ev", Attrs: []string{"job_id"}}); err != nil {
		fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Insert("ev", sos.Object{int64(i), "x", float64(i)}); err != nil {
			fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		fatal(err)
	}
	return buf.Bytes()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlc-fuzzcorpus:", err)
	os.Exit(1)
}
