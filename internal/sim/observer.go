package sim

import (
	"fmt"

	"github.com/gmrl/househunt/internal/trace"
)

// BatchObserver receives streaming telemetry from a batch run. The engine
// calls LaneObserver once per worker at lane startup (concurrently, so the
// method must be safe for concurrent use) and then feeds each lane's
// observer from that worker alone — per-lane state needs no locking.
//
// Observation is draw-free by construction: observers receive copies of
// engine state after the round resolves and touch no RNG stream, so an
// observed run is bit-identical to an unobserved one (pinned by the
// differential tests in batch_observer_test.go).
type BatchObserver interface {
	// LaneObserver returns the observer for worker lane (0-based). Called
	// concurrently from worker goroutines.
	LaneObserver(lane int) LaneObserver
}

// LaneObserver is one worker lane's telemetry consumer. All calls arrive
// from that lane's goroutine, in execution order: each replicate's rounds
// ascend, terminated by one ReplicateDone; replicates from different lanes
// interleave arbitrarily (the lane pool streams replicates dynamically).
//
// The argument slices are lane-owned scratch valid only during the call: an
// implementation must copy what it keeps. Both methods are on the engine's
// measured path, and the streaming observers (StreamObserver) must not
// allocate there — 0 allocs/round holds with one attached (pinned by
// AllocsPerRun). Observers that retain history by design, like
// TraceObserver, allocate their copies.
type LaneObserver interface {
	// ObserveRound delivers one resolved round: end-of-round populations by
	// nest (index 0 = home) and the commitment census (index 0 =
	// uncommitted).
	ObserveRound(rep, round int, counts, committed []int)
	// ReplicateDone delivers the replicate's final result. res is valid only
	// during the call.
	ReplicateDone(rep int, res *BatchResult)
}

// WithBatchObserver installs a streaming telemetry observer on the batch.
// A nil observer disables observation (the default).
func WithBatchObserver(obs BatchObserver) BatchOption {
	return func(b *Batch) { b.obs = obs }
}

// The stream row layout carried through trace rings by StreamObserver: a
// round record's payload is [populations[0..k], commitments[0..k]]; a
// replicate-end record is flagged by round == StreamEndRound with payload
// [solved, rounds, winner, faulty, ...zeros].
const StreamEndRound = -1

// StreamRowWidth returns the ring payload width (in int32s) StreamObserver
// needs for an environment with k candidate nests. It is always ≥ 4, so the
// replicate-end payload fits.
func StreamRowWidth(k int) int { return 2 * (k + 1) }

// DecodeStreamEnd unpacks a replicate-end payload (a record whose round is
// StreamEndRound).
func DecodeStreamEnd(row []int32) (solved bool, rounds int, winner NestID, faulty int) {
	return row[0] != 0, int(row[1]), NestID(row[2]), int(row[3])
}

// StreamObserver is the BatchObserver that pushes per-round census records
// into a trace.Collector's lane rings: the zero-allocation transport from
// the engine's hot loop to the collector goroutine. Each lane observer owns
// a preallocated row and its own SPSC ring, so the per-round record path
// performs no allocation and no locking; the collector's sink sees, per
// replicate, rounds 1..R in order followed by one StreamEndRound record.
type StreamObserver struct {
	coll *trace.Collector
	k    int
}

// NewStreamObserver wires a collector to an environment with k candidate
// nests. The collector must have been built with payload width
// StreamRowWidth(k).
func NewStreamObserver(coll *trace.Collector, k int) (*StreamObserver, error) {
	if coll == nil {
		return nil, fmt.Errorf("sim: stream observer needs a collector")
	}
	if k < 1 {
		return nil, fmt.Errorf("sim: stream observer needs k ≥ 1, got %d", k)
	}
	if w := coll.Width(); w != StreamRowWidth(k) {
		return nil, fmt.Errorf("sim: collector payload width %d, want %d for k=%d", w, StreamRowWidth(k), k)
	}
	return &StreamObserver{coll: coll, k: k}, nil
}

// LaneObserver implements BatchObserver. Safe for concurrent calls: ring
// registration is the collector's concern.
func (o *StreamObserver) LaneObserver(lane int) LaneObserver {
	return &streamLane{ring: o.coll.Lane(lane), row: make([]int32, StreamRowWidth(o.k)), k: o.k}
}

// streamLane is one lane's ring producer.
type streamLane struct {
	ring *trace.Ring
	row  []int32
	k    int
}

// ObserveRound implements LaneObserver: pack the two censuses into the
// preallocated row and push. Push blocks (spinning) if the collector falls a
// full ring behind, trading a stall for losslessness.
func (s *streamLane) ObserveRound(rep, round int, counts, committed []int) {
	row := s.row
	base := s.k + 1
	for i := 0; i < base; i++ {
		row[i] = int32(counts[i])
		row[base+i] = int32(committed[i])
	}
	s.ring.Push(int32(rep), int32(round), row)
}

// ReplicateDone implements LaneObserver: emit the StreamEndRound marker.
func (s *streamLane) ReplicateDone(rep int, res *BatchResult) {
	row := s.row
	row[0] = 0
	if res.Solved {
		row[0] = 1
	}
	row[1] = int32(res.Rounds)
	row[2] = int32(res.Winner)
	row[3] = int32(res.Faulty)
	for i := 4; i < len(row); i++ {
		row[i] = 0
	}
	s.ring.Push(int32(rep), StreamEndRound, row)
}

// TraceObserver is the BatchObserver that records a single-replicate run
// into a trace.Trace: each round's (round, populations, commitment census)
// row, exactly the rows core.Run records on the scalar engine, so a traced
// colony can run batched with byte-identical exports. core.RunBatch attaches
// it for cfg.Trace. Only replicate 0 is recorded — attach it to single-seed
// runs. It retains the history, so it allocates O(k) per round by design;
// StreamObserver is the zero-alloc tap for sweeps.
type TraceObserver struct {
	tr *trace.Trace
}

// NewTraceObserver wires a trace to an environment with k candidate nests.
// The trace must have been built for k nests.
func NewTraceObserver(tr *trace.Trace, k int) (*TraceObserver, error) {
	if tr == nil {
		return nil, fmt.Errorf("sim: trace observer needs a trace")
	}
	if k < 1 {
		return nil, fmt.Errorf("sim: trace observer needs k ≥ 1, got %d", k)
	}
	if got := tr.NumNests(); got != k {
		return nil, fmt.Errorf("sim: trace built for %d nests, want k=%d", got, k)
	}
	return &TraceObserver{tr: tr}, nil
}

// LaneObserver implements BatchObserver. Every lane shares the observer: a
// replicate runs on exactly one lane, so replicate 0's rounds arrive from a
// single goroutine and the other lanes never touch the trace.
func (o *TraceObserver) LaneObserver(int) LaneObserver { return o }

// ObserveRound implements LaneObserver: append replicate 0's round to the
// trace (which copies both slices).
func (o *TraceObserver) ObserveRound(rep, round int, counts, committed []int) {
	if rep != 0 {
		return
	}
	// Both slices have length k+1 by engine construction and the trace's k
	// was checked at wiring time, so RecordRound cannot fail.
	_ = o.tr.RecordRound(round, counts, committed)
}

// ReplicateDone implements LaneObserver; the trace needs no end marker.
func (o *TraceObserver) ReplicateDone(int, *BatchResult) {}
