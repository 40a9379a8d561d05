package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// launchEnv, when set, turns this binary into the launcher: a process that
// runs one command, measures it, and prints the measurement.
//
// The harness cannot measure hawksim's peak RSS itself. Linux carries a
// process's ru_maxrss across exec, and Go starts a child in the parent's
// address space, so a child's ru_maxrss starts at the parent's high-water
// mark: started from the harness, which holds the trace and the reference
// arrays, every hawksim run below ~100 MB would report the harness's own
// peak. The launcher is a fresh exec of this binary that has allocated
// nothing, so its mark (a few MB) is below any hawksim run's.
const launchEnv = "HAWKBENCH_LAUNCH"

// launched is what the launcher measures and prints as one JSON line.
type launched struct {
	WallS float64 `json:"wallS"` // exec to exit
	CPUS  float64 `json:"cpuS"`  // user + system, from the child's rusage
	RSSMB float64 `json:"rssMB"` // max resident set, from the child's rusage
	Err   string  `json:"err,omitempty"`
}

// launcherMain is the launcher: run os.Args[1:] once and report.
func launcherMain() {
	cmd := exec.Command(os.Args[1], os.Args[2:]...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t0 := time.Now()
	err := cmd.Run()
	m := launched{WallS: time.Since(t0).Seconds()}
	if err != nil {
		m.Err = fmt.Sprintf("%v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	} else {
		ps := cmd.ProcessState
		m.CPUS = (ps.UserTime() + ps.SystemTime()).Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			m.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(m); err != nil {
		fmt.Fprintln(os.Stderr, "hawkbench launcher:", err)
		os.Exit(1)
	}
}

// launch runs argv through the launcher and returns its measurement.
func launch(argv ...string) (launched, error) {
	self, err := os.Executable()
	if err != nil {
		return launched{}, err
	}
	cmd := exec.Command(self, argv...)
	cmd.Env = append(os.Environ(), launchEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return launched{}, fmt.Errorf("launcher for %s: %w", argv[0], err)
	}
	var m launched
	if err := json.Unmarshal(out, &m); err != nil {
		return launched{}, fmt.Errorf("launcher for %s printed %q: %w", argv[0], out, err)
	}
	if m.Err != "" {
		return m, fmt.Errorf("%s: %s", argv[0], m.Err)
	}
	return m, nil
}
