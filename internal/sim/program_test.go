package sim

import (
	"strings"
	"testing"
)

// TestValidateOutcomeKinds runs Validate over every EmitOp × ObserveOp pair.
// §2 gives each call its own kind of outcome — search() and go(i) a nest and
// its population, recruit(b, i) the home population and a capturer's nest —
// so Validate must accept exactly the pairs whose emit makes the kind the
// observe opcode folds, and each rejection must name the program, the state
// and both opcodes.
func TestValidateOutcomeKinds(t *testing.T) {
	t.Parallel()
	recruitEmits := map[EmitOp]bool{
		EmitRecruitPop: true, EmitRecruitBit: true, EmitRecruitQual: true,
		EmitRecruitAdaptive: true, EmitRecruitApproxN: true, EmitRecruitTransport: true,
	}
	recruitFolds := map[ObserveOp]bool{
		ObserveAdopt: true, ObserveRecruitNest: true, ObserveFinalEq: true, ObserveAdoptPend: true,
		ObserveNestLatch: true, ObserveAdoptZero: true, ObserveQuorumAdopt: true, ObserveQuorumTransport: true,
	}
	bothFolds := map[ObserveOp]bool{ObserveNone: true, ObserveInform: true}
	accepted := 0
	for e := EmitSearch; e <= EmitRecruitTransport; e++ {
		for o := ObserveDiscovery; o <= ObserveInform; o++ {
			prog := Program{
				Algorithm: "kinds",
				States: []ProgramState{
					{Emit: EmitSearch, Observe: ObserveDiscovery, Next: 1},
					{Emit: e, Arg: 1, Observe: o, Next: 0},
				},
				Params: ProgramParams{Tau: 1, FloorDiv: 2, QuorumMult: 2, QuorumCarry: 1, QuorumDocility: 0.5},
			}
			want := bothFolds[o] || recruitEmits[e] == recruitFolds[o]
			err := prog.Validate()
			switch {
			case want && err != nil:
				t.Errorf("%v/%v rejected: %v", e, o, err)
			case want:
				accepted++
			case err == nil:
				t.Errorf("%v/%v accepted, but %v does not fold the outcome %v makes", e, o, o, e)
			default:
				for _, part := range []string{`"kinds"`, "state 1", e.String(), o.String()} {
					if !strings.Contains(err.Error(), part) {
						t.Errorf("%v/%v: error %q does not name %s", e, o, err, part)
					}
				}
			}
		}
	}
	// 3 search/go emits × 11 search/go folds, 6 recruit emits × 8 recruit
	// folds, and all 9 emits × the 2 folds that take both kinds.
	if want := 3*11 + 6*8 + 9*2; accepted != want {
		t.Fatalf("accepted %d pairs, want %d", accepted, want)
	}
}

// TestOpcodeStrings pins the opcode names the Validate errors print.
func TestOpcodeStrings(t *testing.T) {
	t.Parallel()
	for _, c := range []struct{ got, want string }{
		{EmitSearch.String(), "EmitSearch"},
		{EmitRecruitTransport.String(), "EmitRecruitTransport"},
		{(EmitRecruitTransport + 1).String(), "EmitOp(9)"},
		{ObserveDiscovery.String(), "ObserveDiscovery"},
		{ObserveInform.String(), "ObserveInform"},
		{(ObserveInform + 1).String(), "ObserveOp(21)"},
	} {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}
