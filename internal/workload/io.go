package workload

import (
	"bytes"
	"fmt"
	"strconv"
)

// The job record — one line per job of a hawk-trace file (streamio.go):
//
//	jobID,submitTime,numTasks,dur0,dur1,...,durN-1[,L]
//
// matching the tuples the paper's simulator consumes (§4.1): "(jobID, job
// submission time, number of tasks in the job, duration of each task)". A
// trailing "L" marks jobs that are long by construction; floats are strconv
// 'g'/-1, which round-trips exactly (written by AppendFloat, byte for byte).
//
// Every field is a number or the letter L — never a comma, a quote or a line
// break — so appendJobRecord writes what encoding/csv would (a test holds it
// to that) with none of its quoting and no []string per job, and
// FileSource.Next, the one reader of the grammar, reads a record back the
// same way: the line is cut at commas and each field parsed in place into
// the recycled job, so a quote there is a decode error.

// appendJobRecord appends j's record, newline included, to buf.
//
//hawk:hotpath
func appendJobRecord(buf []byte, j *Job) []byte {
	buf = strconv.AppendInt(buf, int64(j.ID), 10)
	buf = append(buf, ',')
	buf = AppendFloat(buf, j.SubmitTime, 'g')
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(len(j.Durations)), 10)
	for _, d := range j.Durations {
		buf = append(buf, ',')
		buf = AppendFloat(buf, d, 'g')
	}
	if j.ConstructedLong {
		buf = append(buf, ",L"...)
	}
	buf = append(buf, '\n')
	return buf
}

// cutFields appends to dst the fields of an unquoted record: line cut at
// every comma, as slices of line.
func cutFields(dst [][]byte, line []byte) [][]byte {
	for {
		i := bytes.IndexByte(line, ',')
		if i < 0 {
			return append(dst, line)
		}
		dst = append(dst, line[:i])
		line = line[i+1:]
	}
}

// parseJobFields decodes one job record (grammar above) into j, reusing
// j.Durations' backing array when it has capacity, and checks the per-job
// invariants Validate would (CheckJob): finite non-negative submit time and
// durations, at least one task. Times and durations go through parseFloat, which reads the
// field's bytes in place. The id and the task count go through strconv.Atoi,
// whose string(f) conversion does not allocate: strconv keeps no reference
// to it, and an integer fits the compiler's 32-byte stack buffer for it.
func parseJobFields(rec [][]byte, j *Job) error {
	if len(rec) < 4 {
		return fmt.Errorf("record too short (%d fields)", len(rec))
	}
	id, err := strconv.Atoi(string(rec[0]))
	if err != nil {
		return fmt.Errorf("bad job id %q: %w", rec[0], err)
	}
	submit, err := parseFloat(rec[1])
	if err != nil {
		return fmt.Errorf("bad submit time %q: %w", rec[1], err)
	}
	if !nonNegative(submit) {
		return fmt.Errorf("submit time %g is not a finite number >= 0", submit)
	}
	n, err := strconv.Atoi(string(rec[2]))
	if err != nil || n < 1 {
		return fmt.Errorf("bad task count %q", rec[2])
	}
	rest := rec[3:]
	long := false
	if len(rest) == n+1 && string(rest[n]) == "L" {
		long = true
		rest = rest[:n]
	}
	if len(rest) != n {
		return fmt.Errorf("expected %d durations, got %d", n, len(rest))
	}
	if cap(j.Durations) >= n {
		j.Durations = j.Durations[:n]
	} else {
		j.Durations = make([]float64, n)
	}
	for i, f := range rest {
		d, err := parseFloat(f)
		if err != nil {
			return fmt.Errorf("bad duration %q: %w", f, err)
		}
		if !nonNegative(d) {
			return fmt.Errorf("duration %g is not a finite number >= 0", d)
		}
		j.Durations[i] = d
	}
	j.ID, j.SubmitTime, j.ConstructedLong = id, submit, long
	return nil
}

// LoadFile reads the hawk-trace file at path into memory: OpenSource,
// materialized and closed.
func LoadFile(path string) (*Trace, error) {
	src, err := OpenSource(path)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	return Materialize(src)
}
