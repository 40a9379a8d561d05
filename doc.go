// Package repro is a from-scratch Go reproduction of "Hawk: Hybrid
// Datacenter Scheduling" (Delgado, Dinu, Kermarrec, Zwaenepoel — USENIX ATC
// 2015).
//
// # Public API
//
// Import repro/hawk. It is the one engine-agnostic scheduling surface:
//
//   - the paper's four schedulers — "sparrow", "hawk", "centralized" and
//     "split" — named in hawk.Config.Policy and listed by hawk.Policies,
//     with Config switches for the three Hawk ablations of Figure 7;
//   - one shared hawk.Config (a struct literal; validation, defaults
//     resolved once) consumed by every engine;
//   - one hawk.Report result schema with CSV and JSON export, so engines
//     compare apples-to-apples.
//
// Two engines execute policies: hawk.Simulate, the trace-driven
// discrete-event simulator of the paper's evaluation (§4.1), and
// hawk.RunLive, a goroutine-per-node prototype runtime in which messages
// and task execution consume real time (§3.8, §4.10). The simulator takes
// its workload one way, hawk.SimulateSource over a hawk.Source — a trace
// already in memory (which is all hawk.Simulate adds), an on-demand
// synthetic generator, or a trace file reader — pulling each job only when
// it submits, so a multi-million-task trace runs in memory proportional to
// in-flight work.
//
// # What is reproduced
//
// The library implements Hawk's hybrid scheduler — centralized scheduling
// for long jobs, Sparrow-style distributed batch sampling for short jobs, a
// reserved short partition, and randomized work stealing — together with
// every substrate the paper's evaluation depends on: the discrete-event
// cluster simulator, synthetic Google/Cloudera/Facebook/Yahoo workload
// generators, the Sparrow, fully-centralized, and split-cluster baselines,
// and the live prototype runtime.
//
// # Where things are documented
//
// Each topic has one home; this file only points at it.
//
//   - README.md — the user's tour: quickstart, streaming traces,
//     the scenario planes (churn, heterogeneity, gray failures, the
//     multi-scheduler model) with their Config fields and counters,
//     commands, what guards what (testing), static analysis.
//   - docs/ARCHITECTURE.md — the implementer's map: the policy/engine
//     split, the protocol kernels both engines call (and the one place the
//     engines deliberately differ), the data-oriented simulator core, the
//     cluster model, the multi-scheduler commit path, the gray-failure
//     plane, and how the invariants are enforced.
//   - `hawksim -h` / `hawkexp -h` — the command-line flags; the scenario
//     flags are one shared set (internal/cliflags).
//   - bench/README.md — the end-to-end benchmark (BENCHMARK.json);
//     CHANGES.md — what each PR measured; internal/lint/doc.go — the
//     //hawk: directive grammar hawklint checks.
//
// # Layout
//
// hawk is the public façade. internal/policy holds the API implementation
// (the policy table, config, report, and the scenario specs with their
// protocol rules); internal/core holds the engine-independent building blocks
// (estimation, classification, partitioning, the cluster view, probe
// placement, stealing, the centralized waiting-time queue, and the
// multi-scheduler kernels: the live-scheduler set and the claim table);
// internal/sim and internal/liverun are the engines; internal/eventq is the
// simulator's typed-event queue; internal/workload generates, streams and
// serializes traces; internal/experiments reproduces every table and
// figure of the paper, fanning each figure's independent runs out over a
// bounded worker pool with results byte-identical to a serial loop;
// internal/lint is hawklint, whose one entry point is `go test
// ./internal/lint`. cmd/hawksim, cmd/hawkexp, and cmd/hawkgen are the
// command-line entry points (internal/cliflags is what the first two
// share); `hawkexp -exp all -quick` regenerates the paper's evaluation;
// bench/ is the end-to-end benchmark.
package repro
