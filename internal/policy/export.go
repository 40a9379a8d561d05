package policy

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"repro/internal/workload"
)

// resultsHeader names the columns of the per-job results format.
const resultsHeader = "jobID,submitTime,runtime,tasks,long,trueLong,estimate\n"

// appendJobRow appends j's results row, newline included, to buf. Numbers
// and booleans never contain a comma, a quote or a line break, so the row
// is what encoding/csv would write and needs none of its quoting.
//
//hawk:hotpath
func appendJobRow(buf []byte, j JobReport) []byte {
	buf = strconv.AppendInt(buf, int64(j.ID), 10)
	buf = append(buf, ',')
	buf = workload.AppendFloat(buf, j.SubmitTime, 'g')
	buf = append(buf, ',')
	buf = workload.AppendFloat(buf, j.Runtime, 'g')
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(j.Tasks), 10)
	buf = append(buf, ',')
	buf = strconv.AppendBool(buf, j.Long)
	buf = append(buf, ',')
	buf = strconv.AppendBool(buf, j.TrueLong)
	buf = append(buf, ',')
	buf = workload.AppendFloat(buf, j.Estimate, 'g')
	buf = append(buf, '\n')
	return buf
}

// appendJobJSON appends j as encoding/json writes an element of the
// report's "jobs" array under WriteJSON's indent, from its "{" to its "}":
// the fields in JobReport's order, duringOutage only when true, and floats
// in encoding/json's spelling — strconv 'f'/-1, or 'e'/-1 below 1e-6 and
// from 1e21 up with a one-digit negative exponent unpadded (e-07 → e-7).
// A NaN or infinite float is the error encoding/json returns for it.
//
//hawk:hotpath
func appendJobJSON(b []byte, j *JobReport) ([]byte, error) {
	const field = ",\n      \""
	var err error
	b = append(b, "{\n      \"id\": "...)
	b = strconv.AppendInt(b, int64(j.ID), 10)
	b = append(b, field+"submitTime\": "...)
	if b, err = appendJSONFloat(b, j.SubmitTime); err != nil {
		return b, err
	}
	b = append(b, field+"runtime\": "...)
	if b, err = appendJSONFloat(b, j.Runtime); err != nil {
		return b, err
	}
	b = append(b, field+"tasks\": "...)
	b = strconv.AppendInt(b, int64(j.Tasks), 10)
	b = append(b, field+"long\": "...)
	b = strconv.AppendBool(b, j.Long)
	b = append(b, field+"trueLong\": "...)
	b = strconv.AppendBool(b, j.TrueLong)
	b = append(b, field+"estimate\": "...)
	if b, err = appendJSONFloat(b, j.Estimate); err != nil {
		return b, err
	}
	if j.DuringOutage {
		b = append(b, field+"duringOutage\": true"...)
	}
	b = append(b, "\n    }"...)
	return b, nil
}

// appendJSONFloat appends f as encoding/json writes a float64.
//
//hawk:hotpath
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, unsupportedFloat(f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = workload.AppendFloat(b, f, format)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// unsupportedFloat is encoding/json's error for a NaN or infinite float,
// with the same message; its Value is left zero (this package does not
// import reflect).
func unsupportedFloat(f float64) error {
	return &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
}

// WriteResultsCSV exports per-job outcomes as CSV with a header row:
//
//	jobID,submitTime,runtime,tasks,long,trueLong,estimate
//
// so runs can be post-processed or plotted outside Go. The format is
// engine-independent: both the simulator and the live engine fill every
// column.
func WriteResultsCSV(w io.Writer, r *Report) error {
	s, _ := NewJobCSVSink(w) // never fails, see there
	for _, j := range r.Jobs {
		if err := s.Sink(j); err != nil {
			return err
		}
	}
	return s.Flush()
}

// JobCSVSink streams per-job outcomes to CSV row by row, in the exact
// WriteResultsCSV format, as the run executes. It is the Config.JobSink
// counterpart of WriteResultsCSV for streamed runs: every job is persisted
// at completion and never retained, so exporting a multi-million-job run
// needs O(1) memory. Rows buffer through a bufio.Writer; call Close (or
// Flush) when the run returns.
type JobCSVSink struct {
	bw  *bufio.Writer
	f   *os.File // owned file when created by CreateJobCSVSink, else nil
	row []byte   // the reused row buffer; Sink overwrites it each call
}

// NewJobCSVSink starts a CSV stream on w, beginning with the header row.
// Pass sink.Sink as Config.JobSink. The error is always nil: the header
// only reaches the buffer, and what w refuses surfaces at Flush.
func NewJobCSVSink(w io.Writer) (*JobCSVSink, error) {
	s := &JobCSVSink{bw: bufio.NewWriter(w), row: make([]byte, 0, 128)}
	s.bw.WriteString(resultsHeader)
	return s, nil
}

// CreateJobCSVSink creates path, replacing an existing file
// (workload.CreateFile), and starts a CSV stream on it; Close also closes
// the file.
func CreateJobCSVSink(path string) (*JobCSVSink, error) {
	f, err := workload.CreateFile(path)
	if err != nil {
		return nil, err
	}
	s, _ := NewJobCSVSink(f) // never fails, see there
	s.f = f
	return s, nil
}

// Sink appends one job row. It has the Config.JobSink signature.
func (s *JobCSVSink) Sink(j JobReport) error {
	s.row = appendJobRow(s.row[:0], j)
	if _, err := s.bw.Write(s.row); err != nil {
		return fmt.Errorf("policy: writing job %d: %w", j.ID, err)
	}
	return nil
}

// Flush drains buffered rows to the underlying writer.
func (s *JobCSVSink) Flush() error { return s.bw.Flush() }

// Close flushes and, when the sink owns its file, closes it.
func (s *JobCSVSink) Close() error {
	err := s.Flush()
	if s.f != nil {
		if cerr := s.f.Close(); err == nil {
			err = cerr
		}
		s.f = nil
	}
	return err
}

// writeFile creates path, replacing an existing file (workload.CreateFile),
// has write fill it, and closes it. A failed write or close removes the
// file, so a failed save leaves nothing half written.
func writeFile(path string, write func(io.Writer) error) (err error) {
	f, err := workload.CreateFile(path)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			err = errors.Join(err, os.Remove(path))
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	return f.Close()
}

// SaveResultsCSV writes per-job outcomes to path.
func SaveResultsCSV(path string, r *Report) error {
	return writeFile(path, func(w io.Writer) error { return WriteResultsCSV(w, r) })
}

// ReadResultsCSV parses a file written by WriteResultsCSV back into job
// reports (the scalar Report fields are not part of the format).
func ReadResultsCSV(r io.Reader) ([]JobReport, error) {
	cr := csv.NewReader(bufio.NewReader(r))
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("policy: empty results file")
	}
	out := make([]JobReport, len(recs)-1)
	for i, rec := range recs[1:] {
		if len(rec) != 7 {
			return nil, fmt.Errorf("policy: results row %d has %d fields, want 7", i+2, len(rec))
		}
		j, errs := &out[i], [7]error{}
		j.ID, errs[0] = strconv.Atoi(rec[0])
		j.SubmitTime, errs[1] = strconv.ParseFloat(rec[1], 64)
		j.Runtime, errs[2] = strconv.ParseFloat(rec[2], 64)
		j.Tasks, errs[3] = strconv.Atoi(rec[3])
		j.Long, errs[4] = strconv.ParseBool(rec[4])
		j.TrueLong, errs[5] = strconv.ParseBool(rec[5])
		j.Estimate, errs[6] = strconv.ParseFloat(rec[6], 64)
		if err := errors.Join(errs[:]...); err != nil {
			return nil, fmt.Errorf("policy: results row %d: %w", i+2, err)
		}
	}
	return out, nil
}
