package policy

import (
	"io"
	"testing"
)

// The report layer's rungs of the measurement ladder: what it costs to turn
// a retained run's 40 000 job reports (the benchmark workloads' job count)
// into bytes.

var benchJobs = syntheticJobs(40000) // the benchmark workloads' job count

// countWriter counts bytes, for the MB/s of a writer into nothing.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

func BenchmarkWriteJSON(b *testing.B) {
	r := retainedReport(benchJobs)
	var cw countWriter
	b.ReportAllocs()
	for b.Loop() {
		cw.n = 0
		if err := r.WriteJSON(&cw); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(cw.n)
}

func BenchmarkWriteResultsCSV(b *testing.B) {
	r := &Report{Jobs: benchJobs}
	var cw countWriter
	b.ReportAllocs()
	for b.Loop() {
		cw.n = 0
		if err := WriteResultsCSV(&cw, r); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(cw.n)
}

// BenchmarkJobCSVSink is per job: ns/op is ns/job, allocs/op allocs/job.
func BenchmarkJobCSVSink(b *testing.B) {
	sink, err := NewJobCSVSink(io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if err := sink.Sink(benchJobs[i%len(benchJobs)]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}
