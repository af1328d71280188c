package main

import (
	"fmt"
	"time"

	"darshanldms/internal/darshan"
	"darshanldms/internal/dsos"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/rng"
	"darshanldms/internal/sos"
)

// jobShape describes one generated job: its ranks spread over producers
// (compute nodes) and the I/O pattern each rank runs per cycle.
type jobShape struct {
	job       int64
	producers int
	ranks     int // ranks per producer
	// steps is the number of write steps per rank per cycle.
	steps int
	// perProcess selects file-per-process I/O (a fresh file per rank and
	// step: open, two writes, close). Otherwise the job writes one shared
	// N-1 checkpoint file: each rank opens it, writes steps blocks at
	// strided offsets and closes it.
	perProcess bool
	// producerBase offsets the node numbering so jobs can sit on
	// disjoint nodes.
	producerBase int
	// stepTime is the virtual time between a rank's write steps.
	stepTime time.Duration
}

// genEvent is one template event plus the connector's delivery identity
// for it, precomputed so the freshness and loss accounting can index by
// (producer, seq) without a map on the hot path.
type genEvent struct {
	ev   darshan.Event
	prod int // index into the workload's producer table
}

// eventStream is a seeded, cyclic event stream: one cycle of template
// events built at set-up, replayed with every timestamp shifted by the
// cycle's period so that no two published events are equal.
type eventStream struct {
	shape     jobShape
	meta      jsonmsg.JobMeta
	tmpl      []genEvent
	period    time.Duration
	producers []string
}

const blockSize = 1 << 20

// producerName is the node name of producer p.
func producerName(p int) string { return fmt.Sprintf("nid%05d", p) }

// newEventStream builds one cycle of the job's events from the seed. The
// same seed and shape give an identical stream.
func newEventStream(seed uint64, shape jobShape) *eventStream {
	r := rng.New(seed).Derive(fmt.Sprintf("job-%d", shape.job))
	s := &eventStream{
		shape: shape,
		meta:  jsonmsg.JobMeta{UID: 99066, JobID: shape.job, Exe: "/projects/hacc/hacc-io"},
	}
	for p := 0; p < shape.producers; p++ {
		s.producers = append(s.producers, producerName(shape.producerBase+p))
	}
	nranks := shape.producers * shape.ranks
	// Ranks issue their I/O in a seeded interleaving within each step,
	// as the ranks of a real job race each other to the file system.
	add := func(rank int, op darshan.Op, file string, off, length int64, at time.Duration) {
		dur := time.Duration(r.Intn(int(2*time.Millisecond))) + time.Microsecond
		s.tmpl = append(s.tmpl, genEvent{
			ev: darshan.Event{
				Module: darshan.ModPOSIX, Op: op, Rank: rank,
				Producer: s.producers[rank/shape.ranks],
				File:     file, RecordID: uint64(r.Uint64() >> 1),
				Offset: off, Length: length,
				MaxByte: off + length - 1, Cnt: 1,
				Start: at, End: at + dur,
			},
			prod: rank / shape.ranks,
		})
	}
	stepTime := shape.stepTime
	jitter := func() time.Duration { return time.Duration(r.Intn(int(stepTime / 2))) }
	if shape.perProcess {
		for step := 0; step < shape.steps; step++ {
			base := time.Duration(step) * stepTime
			for _, rank := range r.Perm(nranks) {
				file := fmt.Sprintf("/lscratch/job%d/rank%05d/out.%04d", shape.job, rank, step)
				at := base + jitter()
				add(rank, darshan.OpOpen, file, 0, 0, at)
				add(rank, darshan.OpWrite, file, 0, blockSize, at+time.Microsecond)
				add(rank, darshan.OpWrite, file, blockSize, blockSize, at+2*time.Microsecond)
				add(rank, darshan.OpClose, file, 0, 0, at+3*time.Microsecond)
			}
		}
	} else {
		file := fmt.Sprintf("/lscratch/job%d/checkpoint.h5", shape.job)
		for _, rank := range r.Perm(nranks) {
			add(rank, darshan.OpOpen, file, 0, 0, jitter())
		}
		for step := 0; step < shape.steps; step++ {
			base := time.Duration(step+1) * stepTime
			for _, rank := range r.Perm(nranks) {
				off := int64(step*nranks+rank) * blockSize
				add(rank, darshan.OpWrite, file, off, blockSize, base+jitter())
			}
		}
		for _, rank := range r.Perm(nranks) {
			add(rank, darshan.OpClose, file, 0, 0, time.Duration(shape.steps+1)*stepTime+jitter())
		}
	}
	s.period = time.Duration(shape.steps+2) * stepTime
	return s
}

// at returns the i-th event of the unbounded stream.
func (s *eventStream) at(i int, ev *darshan.Event) (prod int) {
	g := &s.tmpl[i%len(s.tmpl)]
	*ev = g.ev
	shift := time.Duration(i/len(s.tmpl)) * s.period
	ev.Start += shift
	ev.End += shift
	return g.prod
}

// rows returns the store rows event i becomes: the reference path the
// correctness gate compares the DSOS contents against.
func (s *eventStream) rows(i int, dst []sos.Object) []sos.Object {
	var ev darshan.Event
	s.at(i, &ev)
	msg := jsonmsg.FromEvent(&ev, s.meta)
	return dsos.AppendObjects(dst, &msg)
}

// seqTracker hands out the per-producer sequence numbers the connector
// assigns, in publish order, so the generator knows each event's
// (producer, seq) delivery identity.
type seqTracker []uint64

func (t seqTracker) next(prod int) uint64 {
	t[prod]++
	return t[prod]
}
