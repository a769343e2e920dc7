package core

import (
	"encoding/json"
	"io"
)

// ResultJSON is the machine-readable summary of one (architecture,
// service) measurement, for plotting pipelines outside the repo.
type ResultJSON struct {
	Arch           string  `json:"arch"`
	Service        string  `json:"service"`
	Requests       int     `json:"requests"`
	Batches        int     `json:"batches,omitempty"`
	AvgLatencyUs   float64 `json:"avg_latency_us"`
	P99LatencyUs   float64 `json:"p99_latency_us"`
	ReqPerJoule    float64 `json:"requests_per_joule"`
	SIMTEfficiency float64 `json:"simt_efficiency"`
	IPC            float64 `json:"ipc"`
	ScalarOps      uint64  `json:"scalar_ops"`
	FrontendOps    uint64  `json:"frontend_ops"`
	Mispredicts    uint64  `json:"mispredicts"`
	L1Accesses     uint64  `json:"l1_accesses"`
	L1MPKI         float64 `json:"l1_mpki"`
	DRAMAccesses   uint64  `json:"dram_accesses"`
	EnergyJoules   struct {
		FrontendOoO float64 `json:"frontend_ooo"`
		Exec        float64 `json:"exec"`
		Memory      float64 `json:"memory"`
		Static      float64 `json:"static"`
	} `json:"energy_joules"`
}

// Summary converts a Result to its JSON form.
func (r *Result) Summary() ResultJSON {
	out := ResultJSON{
		Arch:           r.Arch.String(),
		Service:        r.Service,
		Requests:       r.Requests,
		Batches:        r.Batches,
		AvgLatencyUs:   r.AvgLatencySec() * 1e6,
		P99LatencyUs:   r.Latency.Percentile(99) / (r.FreqGHz * 1e9) * 1e6,
		ReqPerJoule:    r.ReqPerJoule(),
		SIMTEfficiency: r.SIMTEff,
		IPC:            r.Stats.IPC(),
		ScalarOps:      r.Stats.ScalarOps,
		FrontendOps:    r.Stats.Uops,
		Mispredicts:    r.Stats.Mispredicts,
		L1Accesses:     r.Stats.Mem.L1.Accesses,
		L1MPKI:         r.L1MPKI(),
		DRAMAccesses:   r.Stats.Mem.DRAMAccesses,
	}
	out.EnergyJoules.FrontendOoO = r.Energy.FrontendOoO
	out.EnergyJoules.Exec = r.Energy.Exec
	out.EnergyJoules.Memory = r.Energy.Memory
	out.EnergyJoules.Static = r.Energy.Static
	return out
}

// WriteJSON emits the chip study as indented JSON, one record per
// (service, architecture).
func WriteJSON(w io.Writer, rows []ChipRow) error {
	var out []ResultJSON
	for _, row := range rows {
		for _, res := range []*Result{row.CPU, row.SMT, row.RPU, row.GPU} {
			if res != nil {
				out = append(out, res.Summary())
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
