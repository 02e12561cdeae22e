package derive

import "testing"

// BenchmarkDeriveBuild measures a cold, uncached Build for the
// chaos-10k job (a 10,000-machine pipeline-parallel timeline of 120,001
// ops, profiled over 20 iterations) and for the 16 × p4d testbed. Run
// it with -benchmem: the allocation count is the profiler's and the
// timeline builder's per-op cost.
func BenchmarkDeriveBuild(b *testing.B) {
	for _, pk := range pinKeys {
		if pk.name != "chaos-10k" && pk.name != "interference-p4d" {
			continue
		}
		b.Run(pk.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Build(pk.key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
