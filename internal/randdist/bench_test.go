package randdist

import "testing"

// The sampler's rung of the measurement ladder: the draw under every probe
// placement and every steal, k distinct ids out of n nodes. k = 20 is a
// ten-task job's probes at the paper's probe ratio of 2; n runs over the
// cluster sizes the experiments use, which is what the rejection set's
// footprint (four bytes a node) follows. One op is one call, twenty picks.
var sampleSizes = []struct {
	name string
	n    int
}{{"1k", 1000}, {"15k", 15000}, {"170k", 170000}}

const sampleK = 20

func BenchmarkSampleWithoutReplacementInto(b *testing.B) {
	for _, size := range sampleSizes {
		b.Run(size.name, func(b *testing.B) {
			src := New(1)
			buf := make([]int, 0, sampleK)
			b.ReportAllocs()
			for b.Loop() {
				buf = src.SampleWithoutReplacementInto(buf[:0], size.n, sampleK)
			}
		})
	}
}
