package core

import (
	"testing"

	"repro/internal/randdist"
)

// The cluster view's rung of the measurement ladder: the draw behind every
// steal attempt — StealPolicy.CandidatesInto asks SampleGeneralInto for
// Cap+1 ids — on the two paths a view has. Static is a run without churn:
// the view hands the call to the partition's dense-range sampler. Dynamic is
// the same cluster after EnableMembership with 5 % of its nodes failed: the
// draw indexes the alive list and maps back to node ids. One op is one call.

func benchSampleGeneral(b *testing.B, dynamic bool) {
	for _, size := range cqBenchSizes {
		b.Run(size.name, func(b *testing.B) {
			v := NewClusterView(NewPartition(size.n, 0.17)) // the Google trace's short partition
			if dynamic {
				v.EnableMembership()
				for id := 0; id < size.n; id += 20 {
					v.Fail(id)
				}
			}
			src := randdist.New(1)
			buf := make([]int, 0, DefaultStealCap+1)
			b.ReportAllocs()
			for b.Loop() {
				buf = v.SampleGeneralInto(buf[:0], src, DefaultStealCap+1)
			}
		})
	}
}

func BenchmarkClusterViewSampleStatic(b *testing.B)  { benchSampleGeneral(b, false) }
func BenchmarkClusterViewSampleDynamic(b *testing.B) { benchSampleGeneral(b, true) }
