package report_test

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/workload"
)

// BenchmarkReportJSON measures encoding one served /v1/sim body: a
// service.SimResponse around the Report of an eight-process run of the
// optimized design, the size of a design-sweep response, indented as
// the service encodes it. bytes is the encoded size.
func BenchmarkReportJSON(b *testing.B) {
	cfg := core.Optimized()
	res, err := sim.Run(cfg, workload.ReplayProcesses(workload.RecordPaperLike(8, 20_000)), sched.Config{Level: 8})
	if err != nil {
		b.Fatal(err)
	}
	resp := service.SimResponse{
		Request: service.SimRequest{
			Config: experiments.ConfigSpec{Preset: "optimized"},
			Scale:  1, Level: 8, TimeSlice: 500_000, MaxInstructions: 160_000,
		},
		CodeVersion: service.CodeVersion,
		Report:      report.New(cfg, res),
	}
	var n int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		body, err := json.MarshalIndent(resp, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		n = len(body) + 1 // the service appends a newline
	}
	b.ReportMetric(float64(n), "bytes")
}
