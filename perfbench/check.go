package main

import (
	"fmt"

	"mfsynth/internal/core"
	"mfsynth/internal/verify"
)

// The paper's actuation accounting, restated here rather than read from
// the program: a mixing operation actuates each ring valve 40 times in
// setting 1, and costs 3 dedicated pump valves × 40 = 120 actuations split
// over its ring in setting 2; a transport opens and closes each path valve
// once.
const (
	pumpPerValve1  = 40
	pumpPerOp2     = 120
	ctrlPerRouting = 2
)

// checkResult audits one synthesis result independently of the program's
// own accounting and returns every problem found (nil when clean).
func checkResult(in instance, res *core.Result) []string {
	var probs []string
	bad := func(format string, args ...any) {
		probs = append(probs, in.name+": "+fmt.Sprintf(format, args...))
	}
	n := res.Grid * res.Grid
	pump1, pump2, ctrl := make([]int, n), make([]int, n), make([]int, n)
	pump2Total := 0
	for _, ev := range res.Events {
		switch ev.Kind {
		case core.PumpEvent:
			if ev.Ring <= 0 {
				bad("pump event of op %d at t=%d has ring %d", ev.Op, ev.T, ev.Ring)
				continue
			}
			for _, p := range ev.Cells {
				pump1[p.Y*res.Grid+p.X] += pumpPerValve1
				pump2[p.Y*res.Grid+p.X] += pumpPerOp2 / ev.Ring
				pump2Total += pumpPerOp2 / ev.Ring
			}
		case core.CtrlEvent:
			for _, p := range ev.Cells {
				ctrl[p.Y*res.Grid+p.X] += ctrlPerRouting
			}
		default:
			bad("unknown event kind %d", ev.Kind)
		}
	}
	var max1, pmax1, max2, pmax2, used int
	for i := 0; i < n; i++ {
		max1 = max(max1, pump1[i]+ctrl[i])
		pmax1 = max(pmax1, pump1[i])
		max2 = max(max2, pump2[i]+ctrl[i])
		pmax2 = max(pmax2, pump2[i])
		if pump1[i]+ctrl[i] > 0 {
			used++
		}
	}
	got := [5]int{res.VsMax1, res.VsPump1, res.VsMax2, res.VsPump2, res.UsedValves}
	want := [5]int{max1, pmax1, max2, pmax2, used}
	if got != want {
		bad("reported vs1 vs1pump vs2 vs2pump valves %v, event-log recount %v", got, want)
	}
	if mixes := len(res.Assay.MixOps()) - len(res.Mapping.Dropped); pump2Total != pumpPerOp2*mixes {
		bad("setting-2 pump actuations total %d, want %d × %d mixing ops", pump2Total, pumpPerOp2, mixes)
	}
	if in.vsTmax > 0 && (res.VsMax1 >= in.vsTmax || res.VsMax2 >= in.vsTmax) {
		bad("vs_max1 %d / vs_max2 %d not below the paper's vs_tmax %d", res.VsMax1, res.VsMax2, in.vsTmax)
	}
	if rep := verify.Conformance(res); !rep.Clean() {
		bad("conformance: %s", rep)
	}
	return probs
}
