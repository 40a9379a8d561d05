package policy_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/liverun"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

var builtins = []string{"sparrow", "hawk", "centralized", "split"}

func tinyTrace(jobs ...*workload.Job) *workload.Trace {
	return &workload.Trace{
		Name:                   "tiny",
		Jobs:                   jobs,
		Cutoff:                 1000,
		ShortPartitionFraction: 0.2,
	}
}

func job(id int, submit float64, durs ...float64) *workload.Job {
	return &workload.Job{ID: id, SubmitTime: submit, Durations: durs}
}

func TestPoliciesListsBuiltins(t *testing.T) {
	if names, want := policy.Policies(), []string{"centralized", "hawk", "sparrow", "split"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("Policies() = %v, want %v", names, want)
	}
}

// Resolving a name to a policy is New; under the zero Config every policy
// carries the name it was built from.
func TestParsePolicyStringRoundTrip(t *testing.T) {
	for _, name := range builtins {
		p, err := policy.New(name, policy.Config{})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name != name {
			t.Errorf("New(%q).Name = %q", name, p.Name)
		}
	}
}

func TestParsePolicyUnknown(t *testing.T) {
	_, err := policy.New("no-such-policy", policy.Config{})
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	// The error should help the user find a valid name.
	for _, name := range builtins {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

func TestRegistryLookupBuildsFromConfig(t *testing.T) {
	p, err := policy.New("hawk", policy.Config{ShortPartitionFraction: 0.25, DisableStealing: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.ShortPartitionFraction; got != 0.25 {
		t.Errorf("fraction = %v, want 0.25", got)
	}
	if p.Steal {
		t.Error("DisableStealing ignored")
	}
	if p.CentralPool != policy.PoolGeneral {
		t.Errorf("central pool = %v", p.CentralPool)
	}
}

// The table the engines execute: every policy under no ablation switch and
// under each of the three alone (hawk also under all three), pinned as the
// Policy value New resolves. Every row also holds the invariant the
// feasibility rule relies on instead of checking it: a central decision
// comes with a central pool, and a probe decision with a probe pool.
func TestBuiltinRouting(t *testing.T) {
	var (
		probeAll     = policy.Decision{Action: policy.ActionProbe, Pool: policy.PoolAll}
		probeGeneral = policy.Decision{Action: policy.ActionProbe, Pool: policy.PoolGeneral}
		probeShort   = policy.Decision{Action: policy.ActionProbe, Pool: policy.PoolShort}
		central      = policy.Decision{Action: policy.ActionCentral}
		sparrow      = policy.Policy{Name: "sparrow", Short: probeAll, Long: probeAll}
		centralized  = policy.Policy{Name: "centralized", Short: central, Long: central, CentralPool: policy.PoolAll}
		split        = policy.Policy{Name: "split", ShortPartitionFraction: 0.2, Short: probeShort, Long: central, CentralPool: policy.PoolGeneral}
		hawk         = policy.Policy{Name: "hawk", ShortPartitionFraction: 0.2, Short: probeAll, Long: central, CentralPool: policy.PoolGeneral, Steal: true}
	)
	with := func(p policy.Policy, edits ...func(*policy.Policy)) policy.Policy {
		for _, edit := range edits {
			edit(&p)
		}
		return p
	}
	noFrac := func(p *policy.Policy) { p.ShortPartitionFraction = 0 }
	noCentral := func(p *policy.Policy) { p.Long, p.CentralPool = probeGeneral, policy.PoolNone }
	noSteal := func(p *policy.Policy) { p.Steal = false }

	var (
		none        = policy.Config{}
		nopartition = policy.Config{DisablePartition: true}
		nocentral   = policy.Config{DisableCentral: true}
		nosteal     = policy.Config{DisableStealing: true}
		all         = policy.Config{DisablePartition: true, DisableCentral: true, DisableStealing: true}
	)
	cases := []struct {
		name string
		cfg  policy.Config
		want policy.Policy
	}{
		{"sparrow", none, sparrow},
		{"sparrow", nopartition, sparrow},
		{"sparrow", nocentral, sparrow},
		{"sparrow", nosteal, sparrow},
		{"hawk", none, hawk},
		{"hawk", nopartition, with(hawk, noFrac)},
		{"hawk", nocentral, with(hawk, noCentral)},
		{"hawk", nosteal, with(hawk, noSteal)},
		{"hawk", all, with(hawk, noFrac, noCentral, noSteal)},
		{"centralized", none, centralized},
		{"centralized", nopartition, centralized},
		{"centralized", nocentral, centralized},
		{"centralized", nosteal, centralized},
		{"split", none, split},
		{"split", nopartition, with(split, noFrac)},
		{"split", nocentral, split},
		{"split", nosteal, split},
	}
	for _, c := range cases {
		cfg := c.cfg
		cfg.ShortPartitionFraction = 0.2
		row := fmt.Sprintf("%s nopartition=%v nocentral=%v nosteal=%v", c.name, cfg.DisablePartition, cfg.DisableCentral, cfg.DisableStealing)
		p, err := policy.New(c.name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if p != c.want {
			t.Errorf("%s: New = %+v, want %+v", row, p, c.want)
		}
		for _, long := range []bool{false, true} {
			dec, want := p.Route(long), p.Short
			if long {
				want = p.Long
			}
			if dec != want {
				t.Errorf("%s long=%v: Route = %+v, want %+v", row, long, dec, want)
			}
			if dec.Action == policy.ActionCentral && p.CentralPool == policy.PoolNone {
				t.Errorf("%s long=%v: routes centrally but has no central pool", row, long)
			}
			if dec.Action == policy.ActionProbe && dec.Pool == policy.PoolNone {
				t.Errorf("%s long=%v: probes an empty pool", row, long)
			}
		}
	}
}

func TestHawkAblationKnobs(t *testing.T) {
	p, err := policy.New("hawk", policy.Config{
		ShortPartitionFraction: 0.2, DisableCentral: true, DisablePartition: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.ShortPartitionFraction != 0 {
		t.Error("DisablePartition should zero the reservation")
	}
	if p.CentralPool != policy.PoolNone {
		t.Error("DisableCentral should drop the central queue")
	}
	if dec := p.Route(true); dec.Action != policy.ActionProbe || dec.Pool != policy.PoolGeneral {
		t.Errorf("w/o central long jobs should probe the general pool, got %+v", dec)
	}
	if !p.Steal {
		t.Error("stealing should stay on when only partition and central are disabled")
	}
}

func TestNormalizeDefaults(t *testing.T) {
	tr := tinyTrace(job(1, 0, 10))
	cfg, err := policy.Config{NumNodes: 4}.Normalize(tr)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Policy != "hawk" {
		t.Errorf("default policy = %q", cfg.Policy)
	}
	if cfg.NumNodes != 4 {
		t.Errorf("NumNodes mutated: %d", cfg.NumNodes)
	}
	if cfg.Cutoff != tr.Cutoff || cfg.ShortPartitionFraction != tr.ShortPartitionFraction {
		t.Errorf("trace defaults not applied: %+v", cfg)
	}
	if cfg.ProbeRatio != 2 || cfg.StealCap != 10 || cfg.NetworkDelay != 0.0005 {
		t.Errorf("paper defaults not applied: %+v", cfg)
	}
	// Normalize is idempotent.
	again, err := cfg.Normalize(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, cfg) {
		t.Errorf("Normalize not idempotent: %+v != %+v", again, cfg)
	}
}

// UniformLoss is "every message class at p": every *Loss field of FaultSpec
// (a sixth class added later is caught here) and nothing else, so callers
// layer jitter, retries and stragglers on a value that carries only loss.
func TestUniformLoss(t *testing.T) {
	var want policy.FaultSpec
	v := reflect.ValueOf(&want).Elem()
	classes := 0
	for i := 0; i < v.NumField(); i++ {
		if strings.HasSuffix(v.Type().Field(i).Name, "Loss") {
			v.Field(i).SetFloat(0.25)
			classes++
		}
	}
	if classes != 5 {
		t.Fatalf("FaultSpec has %d *Loss fields, want the five message classes", classes)
	}
	if got := policy.UniformLoss(0.25); !reflect.DeepEqual(got, want) {
		t.Errorf("UniformLoss(0.25) = %+v, want %+v", got, want)
	}
}

// The multi-scheduler spec resolves defaults once in Normalize, and a spec
// that is behaviorally the legacy single scheduler canonicalizes to nil so
// those runs stay byte-identical to spec-less ones.
func TestSchedulerSpecNormalize(t *testing.T) {
	tr := tinyTrace(job(1, 0, 10))

	cfg, err := policy.Config{NumNodes: 4, Schedulers: &policy.SchedulerSpec{Count: 3}}.Normalize(tr)
	if err != nil {
		t.Fatal(err)
	}
	spec := cfg.Schedulers
	if spec == nil || spec.Count != 3 || spec.SnapshotInterval != 5 {
		t.Fatalf("defaults not resolved: %+v", spec)
	}

	// Count 1 with no scheduler churn is the legacy model: the spec is
	// dropped, exactly as if it was never set.
	one := policy.Config{NumNodes: 4, Schedulers: &policy.SchedulerSpec{Count: 1}}
	cfg, err = one.Normalize(tr)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Schedulers != nil {
		t.Fatalf("Count=1 spec not canonicalized away: %+v", cfg)
	}
	if one.Schedulers == nil {
		t.Fatal("Normalize mutated the caller's spec pointer")
	}

	// Count 1 *with* scheduler churn keeps the model on: there is a
	// scheduler to fail.
	cfg, err = policy.Config{
		NumNodes:   4,
		Schedulers: &policy.SchedulerSpec{Count: 1},
		Churn:      &policy.ChurnSpec{Events: policy.SchedulerChurn(0, 5, 10)},
	}.Normalize(tr)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Schedulers == nil || cfg.Schedulers.Count != 1 {
		t.Fatalf("churned single scheduler canonicalized away: %+v", cfg)
	}

	// Zero count resolves to the prototype's ten schedulers (§4.10).
	cfg, err = policy.Config{NumNodes: 4, Schedulers: &policy.SchedulerSpec{}}.Normalize(tr)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Schedulers == nil || cfg.Schedulers.Count != 10 {
		t.Fatalf("zero count did not resolve to 10: %+v", cfg.Schedulers)
	}

	for name, bad := range map[string]policy.Config{
		"count above cap":   {NumNodes: 4, Schedulers: &policy.SchedulerSpec{Count: policy.MaxSchedulers + 1}},
		"negative interval": {NumNodes: 4, Schedulers: &policy.SchedulerSpec{Count: 2, SnapshotInterval: -1}},
		"churn without spec": {NumNodes: 4,
			Churn: &policy.ChurnSpec{Events: policy.SchedulerChurn(0, 5, 10)}},
		"scheduler out of range": {NumNodes: 4, Schedulers: &policy.SchedulerSpec{Count: 2},
			Churn: &policy.ChurnSpec{Events: policy.SchedulerChurn(5, 5, 10)}},
		"scheduler churn by count": {NumNodes: 4, Schedulers: &policy.SchedulerSpec{Count: 2},
			Churn: &policy.ChurnSpec{Events: []policy.ChurnEvent{{At: 1, Kind: policy.ChurnSchedFail, Count: 2}}}},
	} {
		if _, err := bad.Normalize(tr); err == nil {
			t.Errorf("Normalize accepted %s", name)
		}
	}
}

// Config validation is shared: both engines must reject the same bad
// configurations, through the same Normalize path, with an error naming the
// field. A non-finite time or delay is one of them: a run must not start
// that cannot serialize its report.
func TestConfigValidationSharedAcrossEngines(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	tr := tinyTrace(job(1, 0, 10))
	noCutoff := tinyTrace(job(1, 0, 10))
	noCutoff.Cutoff = 0
	cases := []struct {
		name  string
		trace *workload.Trace
		cfg   policy.Config
		field string
	}{
		{"zero nodes", tr, policy.Config{NumNodes: 0}, "NumNodes"},
		{"negative schedulers", tr, policy.Config{NumNodes: 4, Schedulers: &policy.SchedulerSpec{Count: -2}}, "Schedulers.Count"},
		{"no cutoff anywhere", noCutoff, policy.Config{NumNodes: 4}, "cutoff"},
		{"negative cutoff", tr, policy.Config{NumNodes: 4, Cutoff: -1}, "cutoff"},
		{"infinite cutoff", tr, policy.Config{NumNodes: 4, Cutoff: inf}, "cutoff"},
		{"unknown policy", tr, policy.Config{NumNodes: 4, Policy: "no-such-policy"}, "policy"},
		{"fraction above one", tr, policy.Config{NumNodes: 4, ShortPartitionFraction: 1.5}, "ShortPartitionFraction"},
		{"negative delay", tr, policy.Config{NumNodes: 4, NetworkDelay: -0.1}, "NetworkDelay"},
		{"NaN delay", tr, policy.Config{NumNodes: 4, NetworkDelay: nan}, "NetworkDelay"},
		{"infinite delay", tr, policy.Config{NumNodes: 4, NetworkDelay: inf}, "NetworkDelay"},
		{"negative misestimation", tr, policy.Config{NumNodes: 4, MisestimateLo: -0.5, MisestimateHi: 0.5}, "mis-estimation"},
		{"inverted misestimation", tr, policy.Config{NumNodes: 4, MisestimateLo: 1.5, MisestimateHi: 0.5}, "mis-estimation"},
		{"infinite misestimation", tr, policy.Config{NumNodes: 4, MisestimateLo: 0.5, MisestimateHi: inf}, "mis-estimation"},
		{"NaN snapshot interval", tr, policy.Config{NumNodes: 4,
			Schedulers: &policy.SchedulerSpec{Count: 2, SnapshotInterval: nan}}, "SnapshotInterval"},
		{"infinite snapshot interval", tr, policy.Config{NumNodes: 4,
			Schedulers: &policy.SchedulerSpec{Count: 2, SnapshotInterval: inf}}, "SnapshotInterval"},
		{"infinite churn time", tr, policy.Config{NumNodes: 4,
			Churn: &policy.ChurnSpec{Events: []policy.ChurnEvent{{At: inf, Kind: policy.ChurnFail, Node: 0}}}}, "At"},
	}
	for _, c := range cases {
		if _, err := c.cfg.Normalize(c.trace); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: Normalize = %v, want an error naming %s", c.name, err, c.field)
		}
		if _, err := sim.Run(c.trace, c.cfg); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: sim.Run = %v, want an error naming %s", c.name, err, c.field)
		}
		if _, err := liverun.Run(c.trace, c.cfg); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: liverun.Run = %v, want an error naming %s", c.name, err, c.field)
		}
	}
}

// A NaN compares false with everything, so a range check written x < 0 let
// it through: a NaN partition fraction panicked in the partition split, and a
// NaN cutoff or mis-estimation bound ran with every job classified short.
// Each — given in the config or taken from the trace's defaults — is an error
// that names its field.
func TestNormalizeRejectsNaN(t *testing.T) {
	nan := math.NaN()
	tr := tinyTrace(job(1, 0, 10))
	nanDefaults := tinyTrace(job(1, 0, 10))
	nanDefaults.Cutoff, nanDefaults.ShortPartitionFraction = nan, nan
	cases := []struct {
		name  string
		trace *workload.Trace
		cfg   policy.Config
		field string
	}{
		{"cutoff", tr, policy.Config{NumNodes: 4, Cutoff: nan}, "cutoff"},
		{"trace cutoff", nanDefaults, policy.Config{NumNodes: 4}, "cutoff"},
		{"partition", tr, policy.Config{NumNodes: 4, ShortPartitionFraction: nan}, "ShortPartitionFraction"},
		{"trace partition", nanDefaults, policy.Config{NumNodes: 4, Cutoff: 5}, "ShortPartitionFraction"},
		{"mis-estimation lo", tr, policy.Config{NumNodes: 4, MisestimateLo: nan, MisestimateHi: 2}, "mis-estimation"},
		{"mis-estimation hi", tr, policy.Config{NumNodes: 4, MisestimateLo: 0.5, MisestimateHi: nan}, "mis-estimation"},
		{"network delay", tr, policy.Config{NumNodes: 4, NetworkDelay: nan}, "NetworkDelay"},
	}
	for _, c := range cases {
		if _, err := c.cfg.Normalize(c.trace); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("NaN %s: Normalize = %v, want an error naming %s", c.name, err, c.field)
		}
	}
}

// A negative probe ratio or steal cap is an error naming the field, as every
// other negative count in Config is; it used to run with the default, as 0
// (unset) still does.
func TestNormalizeRejectsNegativeCounts(t *testing.T) {
	tr := tinyTrace(job(1, 0, 10))
	for _, c := range []struct {
		cfg   policy.Config
		field string
	}{
		{policy.Config{NumNodes: 4, ProbeRatio: -1}, "ProbeRatio"},
		{policy.Config{NumNodes: 4, StealCap: -3}, "StealCap"},
		{policy.Config{NumNodes: 4, ProbeRatio: 3, StealCap: -1}, "StealCap"},
	} {
		if _, err := c.cfg.Normalize(tr); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("ProbeRatio %d, StealCap %d: Normalize = %v, want an error naming %s",
				c.cfg.ProbeRatio, c.cfg.StealCap, err, c.field)
		}
	}
}

func TestResultsCSVRoundTrip(t *testing.T) {
	tr := workload.Generate(workload.Google(), workload.GenConfig{NumJobs: 100, MeanInterArrival: 1, Seed: 2})
	res, err := sim.Run(tr, policy.Config{NumNodes: 500, Policy: "hawk", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := policy.WriteResultsCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	got, err := policy.ReadResultsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(res.Jobs) {
		t.Fatalf("round trip: %d rows, want %d", len(got), len(res.Jobs))
	}
	for i := range got {
		if got[i] != res.Jobs[i] {
			t.Fatalf("row %d mismatch: %+v != %+v", i, got[i], res.Jobs[i])
		}
	}
}

func TestReadResultsCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"jobID,submitTime,runtime,tasks,long,trueLong,estimate\n1,2,3\n",
		"jobID,submitTime,runtime,tasks,long,trueLong,estimate\nx,0,1,1,false,false,1\n",
		"jobID,submitTime,runtime,tasks,long,trueLong,estimate\n1,0,1,1,maybe,false,1\n",
	}
	for i, in := range cases {
		if _, err := policy.ReadResultsCSV(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestReportJSONExport(t *testing.T) {
	tr := tinyTrace(job(1, 0, 10), job(2, 1, 5000))
	res, err := sim.Run(tr, policy.Config{NumNodes: 10, Policy: "hawk", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Engine string           `json:"engine"`
		Policy string           `json:"policy"`
		Config policy.Config    `json:"config"`
		Jobs   []map[string]any `json:"jobs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("exported JSON unparseable: %v", err)
	}
	if decoded.Engine != "sim" || decoded.Policy != "hawk" {
		t.Errorf("engine/policy = %q/%q", decoded.Engine, decoded.Policy)
	}
	if len(decoded.Jobs) != 2 {
		t.Errorf("jobs = %d, want 2", len(decoded.Jobs))
	}
	if decoded.Config.NumNodes != 10 {
		t.Errorf("config NumNodes = %d, want 10", decoded.Config.NumNodes)
	}
}
