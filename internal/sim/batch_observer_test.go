package sim

import (
	"reflect"
	"sync"
	"testing"

	"github.com/gmrl/househunt/internal/trace"
)

// This file is the telemetry differential harness: an observed batch run
// must be bit-identical to an unobserved one (observation consumes zero
// draws), the streamed records must agree exactly with an in-process
// recorder, and the per-round path must stay at zero allocations with an
// observer attached.

func observerTestSeeds() []uint64 {
	return []uint64{3, 17, 101, 4242, 99991, 7}
}

// repStream accumulates one replicate's streamed records, reassembled by the
// collector sink.
type repStream struct {
	rounds  []int32   // round numbers in arrival order
	counts  [][]int32 // per round: populations 0..k
	commits [][]int32 // per round: commitment census 0..k
	end     []int32   // the StreamEndRound payload
}

// streamSink reconstructs per-replicate series from collector records. All
// mutation happens on the single collector goroutine; reads happen after
// Close.
type streamSink struct {
	k    int
	reps map[int32]*repStream
}

func (s *streamSink) Record(lane int, rep, round int32, row []int32) {
	rs := s.reps[rep]
	if rs == nil {
		rs = &repStream{}
		s.reps[rep] = rs
	}
	if round == StreamEndRound {
		rs.end = append([]int32(nil), row[:4]...)
		return
	}
	base := s.k + 1
	rs.rounds = append(rs.rounds, round)
	rs.counts = append(rs.counts, append([]int32(nil), row[:base]...))
	rs.commits = append(rs.commits, append([]int32(nil), row[base:2*base]...))
}

// roundRec is one observed round: its number, the end-of-round populations
// (index 0 = home) and the commitment census (index 0 = uncommitted).
type roundRec struct {
	round  int
	counts []int
	commit []int
}

// recorder is the recording BatchObserver of the batch tests: it keeps every
// replicate's rounds in order. Lanes run replicates concurrently, so it
// locks.
type recorder struct {
	mu   sync.Mutex
	reps map[int][]roundRec
}

func newRecorder() *recorder { return &recorder{reps: map[int][]roundRec{}} }

func (r *recorder) LaneObserver(int) LaneObserver { return r }

func (r *recorder) ObserveRound(rep, round int, counts, committed []int) {
	rec := roundRec{round: round, counts: append([]int(nil), counts...), commit: append([]int(nil), committed...)}
	r.mu.Lock()
	r.reps[rep] = append(r.reps[rep], rec)
	r.mu.Unlock()
}

func (r *recorder) ReplicateDone(int, *BatchResult) {}

// observerPrograms picks representative shapes: the lockstep path, the
// general path (optimal), and the general path with fault lanes.
func observerPrograms() map[string]Program {
	all := allocTestPrograms()
	faulted := all["optimal"]
	faulted.Params.Faults = FaultSpec{CrashFraction: 0.1, CrashWindow: 40, ByzantineFraction: 0.05, SleepFraction: 0.1, SleepWindow: 40, Salt: 9}
	return map[string]Program{
		"simple":         all["simple"],
		"quality":        all["quality"],
		"quorum":         all["quorum"],
		"optimal":        all["optimal"],
		"optimal+faults": faulted,
	}
}

// TestBatchObserverBitIdentical pins the draw-free guarantee: attaching an
// observer changes nothing about the run — with a StreamObserver or a
// recorder attached every BatchResult is deep-equal to the unobserved run's,
// and the streamed rounds are exactly the recorder's rounds.
func TestBatchObserverBitIdentical(t *testing.T) {
	env := MustEnvironment([]float64{1, 0, 0.6, 0})
	const (
		n         = 96
		maxRounds = 400
		window    = 2
	)
	seeds := observerTestSeeds()
	for name, prog := range observerPrograms() {
		name, prog := name, prog
		t.Run(name, func(t *testing.T) {
			run := func(opts ...BatchOption) []BatchResult {
				t.Helper()
				b, err := NewBatch(env, prog, n, opts...)
				if err != nil {
					t.Fatal(err)
				}
				res, err := b.Run(seeds, maxRounds, window)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			base := run()
			rec := newRecorder()
			if recorded := run(WithBatchObserver(rec)); !reflect.DeepEqual(base, recorded) {
				t.Fatalf("recorded run diverged from unobserved run:\nbase:     %+v\nrecorded: %+v", base, recorded)
			}

			sink := &streamSink{k: env.K(), reps: map[int32]*repStream{}}
			coll, err := trace.NewCollector(StreamRowWidth(env.K()), 64, sink)
			if err != nil {
				t.Fatal(err)
			}
			obs, err := NewStreamObserver(coll, env.K())
			if err != nil {
				t.Fatal(err)
			}
			observed := run(WithBatchObserver(obs))
			coll.Close()

			if !reflect.DeepEqual(base, observed) {
				t.Fatalf("observed run diverged from unobserved run:\nbase:     %+v\nobserved: %+v", base, observed)
			}

			// The streamed records must reproduce the recorder's rows
			// record-for-record.
			for rep := range seeds {
				rs := sink.reps[int32(rep)]
				if rs == nil {
					t.Fatalf("rep %d: no streamed records", rep)
				}
				want := rec.reps[rep]
				if len(rs.rounds) != len(want) {
					t.Fatalf("rep %d: streamed %d rounds, recorder saw %d", rep, len(rs.rounds), len(want))
				}
				for i, round := range rs.rounds {
					if int(round) != want[i].round {
						t.Fatalf("rep %d record %d: round %d, want %d", rep, i, round, want[i].round)
					}
					for j := range rs.counts[i] {
						if int(rs.counts[i][j]) != want[i].counts[j] {
							t.Fatalf("rep %d round %d: populations diverge at nest %d: %d vs %d",
								rep, round, j, rs.counts[i][j], want[i].counts[j])
						}
						if int(rs.commits[i][j]) != want[i].commit[j] {
							t.Fatalf("rep %d round %d: commitments diverge at nest %d: %d vs %d",
								rep, round, j, rs.commits[i][j], want[i].commit[j])
						}
					}
				}
				if rs.end == nil {
					t.Fatalf("rep %d: missing StreamEndRound record", rep)
				}
				solved, rounds, winner, faulty := DecodeStreamEnd(rs.end)
				res := base[rep]
				if solved != res.Solved || rounds != res.Rounds || winner != res.Winner || faulty != res.Faulty {
					t.Fatalf("rep %d: end record (%v,%d,%d,%d) != result (%v,%d,%d,%d)",
						rep, solved, rounds, winner, faulty, res.Solved, res.Rounds, res.Winner, res.Faulty)
				}
				// The final streamed commitment census is the result's.
				last := rs.commits[len(rs.commits)-1]
				for j, c := range res.Committed {
					if int(last[j]) != c {
						t.Fatalf("rep %d: final streamed census %v != result census %v", rep, last, res.Committed)
					}
				}
			}
		})
	}
}

// TestBatchObservedStepAllocationFree extends the AllocsPerRun pin to the
// observed path: one resolved round plus its ObserveRound push must perform
// zero allocations, with the collector goroutine live and draining (the
// measurement counts mallocs across all goroutines).
func TestBatchObservedStepAllocationFree(t *testing.T) {
	env := MustEnvironment([]float64{1, 0, 0.6, 0})
	const n = 192
	for _, name := range []string{"simple", "optimal", "quorum"} {
		prog := allocTestPrograms()[name]
		t.Run(name, func(t *testing.T) {
			// Discard records without retaining row — allocation-free sink.
			coll, err := trace.NewCollector(StreamRowWidth(env.K()), 4096, trace.SinkFunc(func(int, int32, int32, []int32) {}))
			if err != nil {
				t.Fatal(err)
			}
			defer coll.Close()
			obs, err := NewStreamObserver(coll, env.K())
			if err != nil {
				t.Fatal(err)
			}
			lobs := obs.LaneObserver(0)

			b, err := NewBatch(env, prog, n)
			if err != nil {
				t.Fatal(err)
			}
			ln := newLane(b, 1)
			if _, err := ln.runReplicate(0, 7, 300, 1, lobs); err != nil {
				t.Fatalf("warm-up replicate: %v", err)
			}
			ln.reset(11)
			phase := prog.Init
			round := 0
			allocs := testing.AllocsPerRun(200, func() {
				var err error
				if ln.lockstep {
					phase, err = ln.stepLockstep(phase)
				} else {
					err = ln.stepGeneral()
				}
				if err != nil {
					t.Fatal(err)
				}
				ln.census()
				round++
				lobs.ObserveRound(0, round, ln.counts, ln.commit)
			})
			if allocs != 0 {
				t.Errorf("%v allocs per observed round, want 0", allocs)
			}
		})
	}
}

// TestNewStreamObserverValidates covers the wiring error paths.
func TestNewStreamObserverValidates(t *testing.T) {
	sink := trace.SinkFunc(func(int, int32, int32, []int32) {})
	coll, err := trace.NewCollector(StreamRowWidth(2), 8, sink)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	if _, err := NewStreamObserver(nil, 2); err == nil {
		t.Error("nil collector accepted")
	}
	if _, err := NewStreamObserver(coll, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewStreamObserver(coll, 3); err == nil {
		t.Error("width mismatch accepted")
	}
	if _, err := NewStreamObserver(coll, 2); err != nil {
		t.Errorf("valid wiring rejected: %v", err)
	}
}

// TestNewTraceObserverValidates covers the trace observer's wiring errors:
// a trace built for the wrong k is rejected by name, like a collector of the
// wrong width.
func TestNewTraceObserverValidates(t *testing.T) {
	if _, err := NewTraceObserver(nil, 2); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := NewTraceObserver(trace.New(0), 0); err == nil {
		t.Error("k=0 accepted")
	}
	_, err := NewTraceObserver(trace.New(3), 2)
	if want := "sim: trace built for 3 nests, want k=2"; err == nil || err.Error() != want {
		t.Errorf("k mismatch: err = %v, want %q", err, want)
	}
	if _, err := NewTraceObserver(trace.New(2), 2); err != nil {
		t.Errorf("valid wiring rejected: %v", err)
	}
}
