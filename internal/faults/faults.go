// Package faults injects crash and Byzantine failures into house-hunting
// colonies, implementing the paper's §6 "Fault tolerance" extension: "a small
// number of ants suffering from crash-faults or even malicious faults should
// not affect the overall populations of recruiting ants and the algorithm's
// performance". `go run ./cmd/hhbench -exp E13` quantifies that claim.
//
// Faulty ants still occupy the model (every ant must make exactly one call
// per round), so:
//
//   - a crashed ant wanders to its last known nest and stays there — a lost
//     ant that still physically exists and perturbs population counts;
//   - a Byzantine ant searches until it finds a BAD nest and then actively
//     recruits for it forever, trying to lure the colony to a bad home.
//
// On the scalar engine one status wrapper carries every fault class: each
// victim of a Spec, and under a Schedule every ant, runs inside it. It
// implements core.Faulty, excluding crashed and Byzantine ants from the
// convergence census: the problem is for the correct ants to co-locate.
package faults

import "github.com/gmrl/househunt/internal/sim"

// committer mirrors core.Committer without importing core (the dependency
// points from core/experiment down into faults's wrapped colonies).
type committer interface {
	Committed() (sim.NestID, bool)
}

// decider mirrors core.Decided without importing core. The fault wrapper
// forwards the inner agent's verdict only when the inner agent implements
// the interface: unconditionally implementing it would turn every wrapped
// colony into a "deciding" one and stall core.Census.Converged for
// algorithms that never decide.
type decider interface {
	Decided() bool
}
