package main

import (
	"strconv"

	"repro/internal/policy"
)

// Every workload runs at the paper's loaded-not-overloaded Google
// operating point: 15 000 nodes, mean job inter-arrival 2.3 s.
const (
	clusterNodes     = 15000
	meanInterArrival = 2.3
)

// The churn_faults scenario: 5 % of the cluster fails and later recovers
// while every message class is lossy and jittery.
const (
	churnFailNodes = 750
	churnFailAt    = 20000
	churnRecoverAt = 60000
	faultLoss      = 0.01
	faultJitter    = 0.001
	faultRetries   = 8
)

// The multisched_stale scenario (§4.10): ten schedulers, each placing
// against a snapshot up to a minute old.
const (
	staleSchedulers       = 10
	staleSnapshotInterval = 60
)

// workloadDef is one benchmark workload: a seeded google trace plus the
// hawksim invocation that consumes it. The same run is described twice —
// args for the child process, config for the in-process traced run — and
// the traced run's report is compared byte for byte against the child's,
// so the two cannot drift apart unnoticed.
type workloadDef struct {
	name string
	why  string
	// jobs is the trace length. The issue sized the 80 000-job workloads
	// for 13 runs of ~2.5 s; the driver's cap of ~37 s per invocation
	// leaves room for that many runs only at half the length.
	jobs int
	gzip bool
	// stream says the run discards per-job reports (-stream) and writes
	// the per-job CSV through the job sink; otherwise reports are
	// retained and saved after the run.
	stream bool
	// exactTasks says every task executes exactly once, so tasksExecuted
	// must equal the trace's task count (churn re-executes, faults
	// speculate: there it is a lower bound).
	exactTasks bool
	// failedNodes is the number of nodes the scenario takes down, the
	// size of the hole the dynamic samplers are timed with.
	failedNodes int
	// args are the hawksim flags besides -trace, -seed, -dump and -json.
	args []string
	// config mirrors args as the policy.Config hawksim builds from them.
	config func(seed int64) policy.Config
}

func baseConfig(policyName string, seed int64) policy.Config {
	// ProbeRatio and StealCap repeat hawksim's flag defaults, which it
	// passes explicitly.
	return policy.Config{Policy: policyName, NumNodes: clusterNodes, ProbeRatio: 2, StealCap: 10, Seed: seed}
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

var workloads = []workloadDef{
	{
		name:       "google_stream",
		why:        "paper's headline point on the streamed path: every layer does real work and none dominates, so a win anywhere must show here",
		jobs:       40000,
		stream:     true,
		exactTasks: true,
		args:       []string{"-policy", "hawk", "-stream"},
		config: func(seed int64) policy.Config {
			c := baseConfig("hawk", seed)
			c.DiscardJobReports = true
			return c
		},
	},
	{
		name:       "multisched_stale",
		why:        "10 schedulers on stale snapshots: CentralQueue.SyncFrom and Assign carry the run, decode and I/O do not; exercises the central queue",
		jobs:       6000,
		stream:     true,
		exactTasks: true,
		args: []string{"-policy", "hawk", "-schedulers", strconv.Itoa(staleSchedulers),
			"-snapshot-interval", strconv.Itoa(staleSnapshotInterval), "-stream"},
		config: func(seed int64) policy.Config {
			c := baseConfig("hawk", seed)
			c.DiscardJobReports = true
			c.Schedulers = &policy.SchedulerSpec{Count: staleSchedulers, SnapshotInterval: staleSnapshotInterval}
			return c
		},
	},
	{
		name:       "sparrow_retained_gz",
		why:        "pure d-choices probing from a gzip trace with retained reports: bypasses the central queue and stealing, loads decode and report writers",
		jobs:       40000,
		gzip:       true,
		exactTasks: true,
		args:       []string{"-policy", "sparrow"},
		config:     func(seed int64) policy.Config { return baseConfig("sparrow", seed) },
	},
	{
		name:        "churn_faults",
		why:         "google_stream plus node churn and lossy RPC: same layers through the dynamic samplers, incarnation stamps and retry timers",
		jobs:        40000,
		stream:      true,
		failedNodes: churnFailNodes,
		args: []string{"-policy", "hawk", "-stream",
			"-fail-nodes", strconv.Itoa(churnFailNodes), "-fail-at", strconv.Itoa(churnFailAt),
			"-recover-at", strconv.Itoa(churnRecoverAt), "-msg-loss", ftoa(faultLoss),
			"-jitter", ftoa(faultJitter), "-fault-retries", strconv.Itoa(faultRetries)},
		config: func(seed int64) policy.Config {
			c := baseConfig("hawk", seed)
			c.DiscardJobReports = true
			c.Churn = &policy.ChurnSpec{Events: []policy.ChurnEvent{
				{At: churnFailAt, Kind: policy.ChurnFail, Count: churnFailNodes},
				{At: churnRecoverAt, Kind: policy.ChurnRecover, Count: churnFailNodes},
			}}
			c.Faults = &policy.FaultSpec{
				ProbeLoss: faultLoss, ReplyLoss: faultLoss, StealLoss: faultLoss,
				AssignLoss: faultLoss, CommitLoss: faultLoss,
				Jitter: faultJitter, MaxRetries: faultRetries,
			}
			return c
		},
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
