package core

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"simr/internal/uservices"
)

// The fixtures in testdata/ were written at commit 10397ce, before chip
// preparation moved onto slot-owned tracers and the sweeps stopped
// caching products no other cell reads. They are frozen: a change that
// moves a byte changes simulation output and must say why.

// renderChipGolden renders a chip study the way the fixture holds it:
// Figures 10, 14, 19, 20 and 21, then the JSON summary, whose floats
// carry every bit of each Result's headline numbers.
func renderChipGolden(t *testing.T, rows []ChipRow) []byte {
	t.Helper()
	var buf bytes.Buffer
	WriteFig10(&buf, rows)
	WriteFig14(&buf, rows)
	WriteFig19(&buf, rows)
	WriteFig20(&buf, rows)
	WriteFig21(&buf, rows)
	if err := WriteJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// renderTimingGolden renders the timing sweep's table, then every
// cell's JSON summary: the table's two-digit geomean ratios alone would
// hide most changes.
func renderTimingGolden(t *testing.T, rows []TimingRow) []byte {
	t.Helper()
	var buf bytes.Buffer
	WriteTimingSweep(&buf, rows)
	var cells []ResultJSON
	for _, r := range rows {
		for _, res := range r.Res {
			cells = append(cells, res.Summary())
		}
	}
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(cells); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkGoldenFile compares got with the fixture at path and reports
// the first differing line.
func checkGoldenFile(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden fixture: %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s diverged at line %d:\nwant %q\ngot  %q", path, i+1, w, g)
		}
	}
	t.Fatalf("%s diverged", path)
}

// TestGoldenChipStudy: the full chip study with the GPU column (every
// architecture, so CPU/SMT-8 scalar prep and RPU/GPU batch prep all
// run) reproduces its frozen rendering byte for byte.
func TestGoldenChipStudy(t *testing.T) {
	rows, err := ChipStudyParallel(uservices.NewSuite(), 32, 3, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenFile(t, "testdata/golden_chip.txt", renderChipGolden(t, rows))
}

// TestGoldenTimingSweep: the RPU timing-knob sweep reproduces its frozen
// rendering byte for byte.
func TestGoldenTimingSweep(t *testing.T) {
	rows, err := TimingSweepParallel(uservices.NewSuite(), 16, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenFile(t, "testdata/golden_timing.txt", renderTimingGolden(t, rows))
}

// TestCellReuseDeterminism: the chip study and the timing sweep, whose
// workers reuse their memory hierarchies from cell to cell, reproduce
// the frozen fixtures at one, two and three workers, twice over in one
// process. Each sweep builds no more hierarchies than its workers hold
// at once: one per architecture for the chip study (a cell runs CPU,
// SMT-8 and then RPU and GPU together), eight for the timing sweep (a
// cell times eight variants).
func TestCellReuseDeterminism(t *testing.T) {
	suite := uservices.NewSuite()
	var built atomic.Int64
	systemBuilt = func() { built.Add(1) }
	defer func() { systemBuilt = nil }()
	const chipArches, timingVariants = 4, 8
	for rep := 0; rep < 2; rep++ {
		for _, workers := range []int{1, 2, 3} {
			built.Store(0)
			rows, err := ChipStudyParallel(suite, 32, 3, true, workers)
			if err != nil {
				t.Fatal(err)
			}
			checkGoldenFile(t, "testdata/golden_chip.txt", renderChipGolden(t, rows))
			if n := built.Load(); n > int64(workers*chipArches) {
				t.Errorf("workers=%d: chip study built %d memory hierarchies, want at most %d", workers, n, workers*chipArches)
			}

			built.Store(0)
			trows, err := TimingSweepParallel(suite, 16, 3, workers)
			if err != nil {
				t.Fatal(err)
			}
			checkGoldenFile(t, "testdata/golden_timing.txt", renderTimingGolden(t, trows))
			if n := built.Load(); n > int64(workers*timingVariants) {
				t.Errorf("workers=%d: timing sweep built %d memory hierarchies, want at most %d", workers, n, workers*timingVariants)
			}
		}
	}
}
