// Package cliflags is the one definition of what the commands share on the
// command line: the scenario flags of hawksim and hawkexp (multi-scheduler
// model, cluster churn, heterogeneity, gray failures) with the assembly of
// their values into a hawk.Config, the pprof profile plumbing, and the
// generated workload hawksim and hawkgen name with -workload. The flags' -h
// text is their reference documentation.
package cliflags

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/hawk"
)

// Scenario holds the parsed scenario flags; see Register and Apply.
type Scenario struct {
	schedulers, failNodes, straggleNodes, faultRetries              int
	snapshotInterval, schedFailAt, schedRecoverAt                   float64
	failAt, recoverAt, centralDown, centralUp, speedSkew, slowSpeed float64
	netDelay, msgLoss, jitter, straggleAt, straggleFactor           float64
	speculate                                                       bool
}

// Register defines the scenario flags on fs and returns the Scenario they
// parse into.
func Register(fs *flag.FlagSet) *Scenario {
	s := &Scenario{}
	// Multi-scheduler model (§4.10).
	fs.IntVar(&s.schedulers, "schedulers", 0, "concurrent schedulers with stale snapshots (0 or 1 = exact single-scheduler model)")
	fs.Float64Var(&s.snapshotInterval, "snapshot-interval", 0, "seconds between scheduler snapshot refreshes (0 = default; requires -schedulers)")
	fs.Float64Var(&s.schedFailAt, "scheduler-fail-at", 0, "simulated seconds at which scheduler 0 fails (0 = never; requires -schedulers)")
	fs.Float64Var(&s.schedRecoverAt, "scheduler-recover-at", 0, "simulated seconds at which scheduler 0 recovers (0 = never; requires -scheduler-fail-at)")
	// Dynamic cluster: churn, central outage, heterogeneity.
	fs.IntVar(&s.failNodes, "fail-nodes", 0, "fail this many random nodes at -fail-at (0 = no failures)")
	fs.Float64Var(&s.failAt, "fail-at", 0, "simulated seconds at which -fail-nodes nodes fail (requires -fail-nodes)")
	fs.Float64Var(&s.recoverAt, "recover-at", 0, "simulated seconds at which failed nodes recover (0 = never; requires -fail-nodes)")
	fs.Float64Var(&s.centralDown, "central-down", 0, "simulated seconds at which the centralized scheduler goes down (0 = never)")
	fs.Float64Var(&s.centralUp, "central-up", 0, "simulated seconds at which the centralized scheduler recovers (0 = never; requires -central-down)")
	fs.Float64Var(&s.speedSkew, "speed-skew", 0, "fraction of nodes running at -slow-speed (0 = homogeneous)")
	fs.Float64Var(&s.slowSpeed, "slow-speed", 0.5, "speed factor of the skewed nodes (1 = nominal)")
	// Gray-failure injection.
	fs.Float64Var(&s.netDelay, "net-delay", 0, "one-way network delay per message leg in seconds (0 = default)")
	fs.Float64Var(&s.msgLoss, "msg-loss", 0, "drop probability applied to every message class (0 = lossless)")
	fs.Float64Var(&s.jitter, "jitter", 0, "extra uniform [0,jitter) delay per message leg in seconds")
	fs.Float64Var(&s.straggleAt, "straggle-at", 0, "simulated seconds at which -straggle-nodes nodes slow down (requires -straggle-nodes)")
	fs.IntVar(&s.straggleNodes, "straggle-nodes", 0, "slow down this many random nodes at -straggle-at (0 = no stragglers)")
	fs.Float64Var(&s.straggleFactor, "straggle-factor", 4, "slowdown factor of the straggling nodes (tasks stretch by this)")
	fs.BoolVar(&s.speculate, "speculate", false, "speculatively re-execute straggling short tasks (first completion wins)")
	fs.IntVar(&s.faultRetries, "fault-retries", 0, "send retries before a lossy message gives up (0 = default 3; raise for heavy -msg-loss; requires a fault flag: -msg-loss, -jitter, -straggle-nodes or -speculate)")
	return s
}

// Apply sets cfg's scenario fields — NetworkDelay, Schedulers, Churn,
// Heterogeneity, Faults — from the parsed flags. A plane none of whose
// flags is set stays nil, which keeps the run on the engines' static fast
// paths. Zero means unset for the fault flags; non-zero values, invalid
// negatives included, pass through so Config.Normalize rejects them with a
// real error. A flag that only parameterizes a plane, given without the flag
// that switches the plane on, is an error here, where the flags still have
// names: the run would be the model without that plane, and nothing
// downstream could tell. (-slow-speed and -straggle-factor are not checked:
// their defaults are not zero, so unset cannot be told from set.)
func (s *Scenario) Apply(cfg *hawk.Config) error {
	faults := s.msgLoss != 0 || s.jitter != 0 || s.straggleNodes != 0 || s.speculate
	for _, d := range []struct {
		flag    string
		value   float64
		needs   string
		on      bool
		without string
	}{
		{"-snapshot-interval", s.snapshotInterval, "-schedulers", s.schedulers > 0,
			"the run is the single-scheduler model, which takes no snapshots"},
		{"-scheduler-recover-at", s.schedRecoverAt, "-scheduler-fail-at", s.schedFailAt > 0, "no scheduler ever fails"},
		{"-fail-at", s.failAt, "-fail-nodes", s.failNodes > 0, "no node ever fails"},
		{"-recover-at", s.recoverAt, "-fail-nodes", s.failNodes > 0, "no node ever fails"},
		{"-central-up", s.centralUp, "-central-down", s.centralDown > 0, "the centralized scheduler never goes down"},
		{"-straggle-at", s.straggleAt, "-straggle-nodes", s.straggleNodes != 0, "no node ever slows down"},
		{"-fault-retries", float64(s.faultRetries), "-msg-loss, -jitter, -straggle-nodes or -speculate", faults,
			"the run is the lossless model, which never re-sends"},
	} {
		if d.value != 0 && !d.on {
			return fmt.Errorf("%s %g requires %s: without it %s", d.flag, d.value, d.needs, d.without)
		}
	}
	cfg.NetworkDelay = s.netDelay
	if s.schedulers > 0 {
		cfg.Schedulers = &hawk.SchedulerSpec{Count: s.schedulers, SnapshotInterval: s.snapshotInterval}
	}
	var events []hawk.ChurnEvent
	if s.failNodes > 0 {
		events = append(events, hawk.ChurnEvent{At: s.failAt, Kind: hawk.ChurnFail, Count: s.failNodes})
		if s.recoverAt > 0 {
			events = append(events, hawk.ChurnEvent{At: s.recoverAt, Kind: hawk.ChurnRecover, Count: s.failNodes})
		}
	}
	if s.centralDown > 0 {
		events = append(events, hawk.ChurnEvent{At: s.centralDown, Kind: hawk.ChurnCentralDown})
		if s.centralUp > 0 {
			events = append(events, hawk.ChurnEvent{At: s.centralUp, Kind: hawk.ChurnCentralUp})
		}
	}
	if s.schedFailAt > 0 {
		events = append(events, hawk.SchedulerChurn(0, s.schedFailAt, s.schedRecoverAt)...)
	}
	if len(events) > 0 {
		cfg.Churn = &hawk.ChurnSpec{Events: events}
	}
	if s.speedSkew > 0 {
		cfg.Heterogeneity = &hawk.Heterogeneity{Classes: []hawk.SpeedClass{{Fraction: s.speedSkew, Speed: s.slowSpeed}}}
	}
	if faults {
		f := hawk.UniformLoss(s.msgLoss)
		f.Jitter, f.MaxRetries, f.Speculate = s.jitter, s.faultRetries, s.speculate
		if s.straggleNodes != 0 {
			f.Stragglers = []hawk.StragglerEvent{
				{At: s.straggleAt, Count: s.straggleNodes, Factor: s.straggleFactor},
			}
		}
		cfg.Faults = &f
	}
	return nil
}

// Workload is the generated workload name stands for, as a source:
// "motivation" is Figure 1's fixed scenario, any other name a spec
// (hawk.SpecByName) generated job by job. Its jobs arrive at mean
// inter-arrival time ia, or at the spec's calibrated rate, the one hawkexp
// uses, when ia is 0 or less.
func Workload(name string, jobs int, ia float64, seed int64) (hawk.Source, error) {
	if name == "motivation" {
		return hawk.NewTraceSource(hawk.MotivationWorkload(seed)), nil
	}
	spec, err := hawk.SpecByName(name)
	if err != nil {
		return nil, err
	}
	if ia <= 0 {
		ia = spec.CalibratedInterArrival()
	}
	return hawk.NewGeneratorSource(spec, hawk.GenConfig{NumJobs: jobs, MeanInterArrival: ia, Seed: seed}), nil
}

// StartProfiles starts a CPU profile to cpuPath and arranges a heap profile
// to memPath; an empty path skips that profile. The caller defers stop,
// which ends the CPU profile and writes the heap profile (problems doing so
// go to stderr — the run's own result still stands).
func StartProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "writing CPU profile: %v\n", err)
			}
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err == nil {
			runtime.GC() // settle the heap so the profile shows live objects
			err = errors.Join(pprof.WriteHeapProfile(f), f.Close())
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing heap profile: %v\n", err)
		}
	}, nil
}
