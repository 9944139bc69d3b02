package algo

import (
	"fmt"

	"github.com/gmrl/househunt/internal/nest"
	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
)

// QuorumAnt implements the strategy real Temnothorax colonies are believed
// to use (paper §1.1, Pratt et al. [22][23]), combining two of the paper's §6
// extensions — quorum thresholds and the tandem-run/transport distinction:
//
//  1. Search, assess, and canvass exactly like Algorithm 3: tandem-run
//     recruitment with probability count/n (carry 1).
//  2. When a visit to the committed nest shows a population at or above the
//     ant's quorum threshold T, the ant switches irreversibly to transport:
//     it recruits every round with carry Carry (default 3 — direct transport
//     is about three times faster than tandem walking, the paper's [21]).
//
// The threshold self-calibrates: T = Multiplier × the population the ant saw
// on its first visit (its initial share, ≈ n/k). A fixed absolute threshold
// below n/k would be met by every nest in round 1 — in this model all n ants
// search simultaneously, unlike the biology where only scouts do — locking
// rival nests into a symmetric transport tug-of-war. Requiring the nest to
// have grown by a factor > 1 over the initial share is the model-appropriate
// reading of "a quorum has been reached".
//
// Quality is judged through an Assessor, so a noisy assessor turns the quorum
// multiplier into the biologists' speed-accuracy dial (Pratt & Sumpter [24]):
// a low quorum commits fast but amplifies individual misjudgments; a high
// quorum filters them at the cost of time. `go run ./cmd/hhbench -exp E18`
// measures the trade-off.
type QuorumAnt struct {
	n      int
	src    *rng.Source
	phase  simplePhase
	active bool

	nest    sim.NestID
	count   int
	quality float64

	multiplier float64
	threshold  int
	carry      int
	transport  bool
	docility   float64
	assessor   nest.Assessor
}

var _ sim.Agent = (*QuorumAnt)(nil)

// NewQuorumAnt builds one quorum-transport ant. multiplier scales the ant's
// initially observed population into its quorum threshold (values <= 1 mean
// the default 1.5); carry is the transport capacity (values < 1 mean 3);
// docility is the probability a transporter submits to being carried away
// (values outside (0,1] mean the default 0.25); assessor may be nil for
// exact assessment.
func NewQuorumAnt(n int, src *rng.Source, multiplier float64, carry int, docility float64, assessor nest.Assessor) *QuorumAnt {
	if multiplier <= 1 {
		multiplier = 1.5
	}
	if carry < 1 {
		carry = 3
	}
	if docility <= 0 || docility > 1 {
		docility = 0.25
	}
	if assessor == nil {
		assessor = nest.ExactAssessor{}
	}
	return &QuorumAnt{
		n: n, src: src, phase: simpleSearch, active: true,
		multiplier: multiplier, carry: carry, docility: docility, assessor: assessor,
	}
}

// Act implements sim.Agent.
func (a *QuorumAnt) Act(int) sim.Action {
	switch a.phase {
	case simpleSearch:
		return sim.Search()
	case simpleRecruit:
		if a.transport {
			return sim.Transport(a.nest, a.carry)
		}
		b := false
		if a.active {
			b = a.src.Bernoulli(float64(a.count) / float64(a.n))
		}
		return sim.Recruit(b, a.nest)
	default:
		return sim.Goto(a.nest)
	}
}

// Observe implements sim.Agent.
func (a *QuorumAnt) Observe(_ int, out sim.Outcome) {
	switch a.phase {
	case simpleSearch:
		a.nest = out.Nest
		a.count = out.Count
		a.quality = a.assessor.Assess(out.Quality, a.src)
		if a.quality <= 0.5 {
			a.active = false
		}
		// Self-calibrate: quorum = multiplier × the initial share, at least
		// the initial share + 2 so growth is always required.
		a.threshold = int(a.multiplier * float64(out.Count))
		if a.threshold < out.Count+2 {
			a.threshold = out.Count + 2
		}
		a.phase = simpleRecruit
	case simpleRecruit:
		if out.Recruited {
			// Captured (tandem-run or carried). Unlike the §2 model's ants,
			// a carried ant knows it was carried (it was physically picked
			// up), so the check uses Recruited rather than a nest change: an
			// ant that misjudged the winning nest and is carried there by a
			// nestmate advertising that same nest must still wake up.
			//
			// Canvassers and passives adopt the capturer's nest. Transporters
			// mostly resist — their commitment is near-irreversible in the
			// biology, which stops a lone misguided canvasser from kidnapping
			// the moving colony — but submit with probability docility and
			// demote to canvassers of the new nest. Without some docility,
			// two nests that both pass quorum would split the colony forever;
			// with it, the larger transporter camp absorbs the smaller.
			submit := !a.transport || a.src.Bernoulli(a.docility)
			if submit {
				if out.Nest != a.nest {
					a.transport = false
				}
				a.nest = out.Nest
				a.active = true
			}
		}
		a.phase = simpleAssess
	case simpleAssess:
		a.count = out.Count
		a.checkQuorum()
		a.phase = simpleRecruit
	}
}

// checkQuorum flips the ant to transport mode when its committed nest's
// population reaches the threshold. Only ants that judged the nest good
// canvass, and only canvassers promote to transport.
func (a *QuorumAnt) checkQuorum() {
	if !a.transport && a.active && a.threshold > 0 && a.count >= a.threshold {
		a.transport = true
	}
}

// Committed implements the core.Committer contract.
func (a *QuorumAnt) Committed() (sim.NestID, bool) {
	return a.nest, a.nest != sim.Home
}

// Decided implements the core.Decided contract: an ant is decided once it
// transports. (Ants carried to the winner late reach quorum at their next
// visit, since the winning nest's population is far above threshold.)
func (a *QuorumAnt) Decided() bool { return a.transport }

// Transporting exposes the transport flag for tests and experiments.
func (a *QuorumAnt) Transporting() bool { return a.transport }

// Quorum is the core.Algorithm builder for the quorum-transport strategy.
// Multiplier scales an ant's initially observed population into its quorum
// threshold (default 1.5; must exceed 1 when set); Carry is the transport
// capacity (default 3); Docility is the probability a transporter submits to
// being carried away (default 0.25); Assessor defaults to exact.
type Quorum struct {
	Multiplier float64
	Carry      int
	Docility   float64
	Assessor   nest.Assessor
}

// Name implements core.Algorithm.
func (q Quorum) Name() string {
	mult := q.Multiplier
	if mult <= 0 {
		mult = 1.5
	}
	if q.Assessor != nil {
		return fmt.Sprintf("quorum(M=%.2g,%s)", mult, q.Assessor.Name())
	}
	return fmt.Sprintf("quorum(M=%.2g)", mult)
}

// Build implements core.Algorithm.
func (q Quorum) Build(n int, env sim.Environment, src *rng.Source) ([]sim.Agent, error) {
	if n <= 0 {
		return nil, fmt.Errorf("algo: quorum needs a positive colony, got %d", n)
	}
	if env.K() == 0 {
		return nil, fmt.Errorf("algo: quorum needs a non-empty environment")
	}
	if q.Multiplier != 0 && q.Multiplier <= 1 {
		return nil, fmt.Errorf("algo: quorum multiplier %v must exceed 1", q.Multiplier)
	}
	if q.Docility < 0 || q.Docility > 1 {
		return nil, fmt.Errorf("algo: quorum docility %v outside [0,1]", q.Docility)
	}
	agents := make([]sim.Agent, n)
	for i := range agents {
		agents[i] = NewQuorumAnt(n, src.Split(uint64(i)), q.Multiplier, q.Carry, q.Docility, q.Assessor)
	}
	return agents, nil
}
