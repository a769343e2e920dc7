package simr

import (
	"math/rand"
	"strings"
	"testing"

	"simr/internal/core"
)

// TestFacadeQuickstart exercises the README's quick-start path through
// the public API.
func TestFacadeQuickstart(t *testing.T) {
	suite := NewSuite()
	if len(suite.Services) != 15 {
		t.Fatalf("suite size %d", len(suite.Services))
	}
	svc := suite.Get("memc")
	reqs := svc.Generate(rand.New(rand.NewSource(1)), 96)

	cpu, err := RunService(ArchCPU, svc, reqs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rpu, err := RunService(ArchRPU, svc, reqs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rpu.ReqPerJoule() <= cpu.ReqPerJoule() {
		t.Fatal("RPU should beat the CPU on requests/joule")
	}
}

func TestFacadeSystemSim(t *testing.T) {
	cfg := DefaultSystemConfig()
	cfg.QPS = 3000
	cfg.Seconds = 1.5
	m := RunSystem(cfg)
	if m.Completed == 0 {
		t.Fatal("no completions")
	}
}

func TestFacadeChipStudy(t *testing.T) {
	suite := NewSuite()
	rows, err := ChipStudyParallel(suite, 32, 3, false, 1)
	if err != nil || len(rows) != 15 {
		t.Fatalf("chip study: %v, %d rows", err, len(rows))
	}
	var sb strings.Builder
	if err := core.WriteJSON(&sb, rows[:1]); err != nil {
		t.Fatal(err)
	}
	if len(sb.String()) == 0 {
		t.Fatal("empty JSON")
	}
}

func TestFacadeExtensionStudies(t *testing.T) {
	g := NewGPGPUSuite()
	if len(g.Services) != 3 {
		t.Fatalf("gpgpu suite %d kernels", len(g.Services))
	}
}
