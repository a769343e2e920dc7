package queuesim

import "testing"

func BenchmarkSystemRunCPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.QPS = 8000
		cfg.Seconds = 1.5
		runSocial(b, cfg)
	}
}

func BenchmarkSystemRunRPUSplit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.QPS = 30000
		cfg.Seconds = 1.5
		cfg.RPU, cfg.Split = true, true
		runSocial(b, cfg)
	}
}
