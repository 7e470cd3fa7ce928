package main

import (
	"math/rand"

	"ocep"
	"ocep/internal/workload"
)

const (
	// nominalRate is the open-loop rate in events per second on every
	// workload. NOTES.md explains why it sits far below half of the
	// closed-loop peak.
	nominalRate = 3000
	// burstEvents is the closed-loop phase's event count, reported in
	// burstRounds rounds.
	burstEvents = 300000
	burstRounds = 5
)

// workloadSpec is one benchmark configuration: an input shape, the pattern
// that detects its planted bugs and the poetd deployment it runs on.
// NOTES.md explains why each exists and which layers it exercises.
type workloadSpec struct {
	name    string
	topo    topology
	pattern string
	gen     func(*rand.Rand, int) []ocep.RawEvent
}

var workloads = []workloadSpec{
	{
		name:    "races-plain",
		topo:    plainTopo,
		pattern: workload.MsgRacePattern(),
		gen:     genRaces,
	},
	{
		name:    "deadlock-ha",
		topo:    haTopo,
		pattern: workload.DeadlockPattern(2),
		gen:     genDeadlock,
	},
	{
		name:    "atomicity-sharded",
		topo:    shardTopo,
		pattern: workload.AtomicityPattern(),
		gen:     genAtomicity,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
